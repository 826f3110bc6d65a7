//! Private-level lockstep: the simulator's L1/L2 and prefetcher against
//! their reference forms, both through the same private-level step.
//!
//! The fast side is `CorePrivate::new` — `LruArray` levels and the
//! fixed-array `StreamPrefetcher`. The reference side is
//! `CorePrivate::from_parts` over [`ReferenceCache`] + `Lru` levels and
//! the [`ReferencePrefetcher`]. Each side runs the fuzzed stream twice at
//! once: through `access_with_llc` against its own LRU LLC, comparing
//! every [`HierarchyAccess`], and through `access_recorded`, comparing
//! every event logged into the [`LlcRecording`]s. The final
//! [`HierarchyStats`] of both paths must agree too.
//!
//! The streams (`gen_private_stream`) mix strided runs in both
//! directions — so confirmed streams issue prefetches up and down —
//! with loops, hot blocks and uniform misses, and the per-job geometry
//! is shrunk enough that L1 and L2 evict.

use mrp_cache::hierarchy::{CorePrivate, HierarchyAccess};
use mrp_cache::policies::Lru;
use mrp_cache::{
    Cache, CacheConfig, HierarchyConfig, HierarchyStats, LlcRecording, Prefetcher, PrivateCache,
};
use mrp_runtime::map_indexed;
use mrp_trace::{AccessKind, MemoryAccess};

use crate::divergence::{Divergence, DivergenceReport};
use crate::fuzzer::SplitMix;
use crate::reference::{ReferenceCache, ReferencePrefetcher};

/// Subject name in divergence reports.
const SUBJECT: &str = "private-levels";

/// The hierarchy geometry job `job` runs: every fourth job the paper's
/// levels, the others small L1/L2 that evict within a short stream. The
/// LLC is small either way; it is not under test.
fn private_config(seed: u64, job: usize) -> HierarchyConfig {
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0x9fb2_1c65_1e98_df25));
    let mut config = HierarchyConfig::single_thread();
    config.llc = CacheConfig::new(64 * 64 * 16, 16);
    if !job.is_multiple_of(4) {
        let l1_ways = [2u64, 4, 8][rng.below(3) as usize];
        let l1_sets = [2u64, 4, 16][rng.below(3) as usize];
        config.l1d = CacheConfig::new(64 * l1_ways * l1_sets, l1_ways as u32);
        config.l2 = CacheConfig::new(64 * 8 * l1_sets * 4, 8);
    }
    // Every eighth job runs without the prefetcher.
    config.prefetch = job % 8 != 7;
    config
}

/// Generates job `job`'s access stream: phases of ascending and
/// descending strided runs, a tight loop, a hot set and uniform misses.
fn gen_private_stream(seed: u64, job: usize, len: usize) -> Vec<MemoryAccess> {
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let footprint = [256u64, 4096, 1 << 16][rng.below(3) as usize];
    let hot: Vec<u64> = (0..12).map(|_| rng.below(footprint)).collect();
    let mut stream = Vec::with_capacity(len);
    let mut cursor = rng.below(footprint);
    while stream.len() < len {
        let mode = rng.below(6);
        let run = 8 + rng.below(56);
        let stride = 1 + rng.below(3);
        for _ in 0..run {
            let block = match mode {
                // Strided runs, up and down, sometimes revisiting.
                0 | 1 => {
                    cursor = (cursor + stride) % footprint;
                    cursor
                }
                2 => {
                    cursor = (cursor + footprint - stride) % footprint;
                    cursor
                }
                3 => (cursor + rng.below(24)) % footprint,
                4 => hot[rng.below(hot.len() as u64) as usize],
                _ => rng.below(footprint),
            };
            let kind = if rng.below(4) == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            stream.push(MemoryAccess {
                pc: 0x40_0000 + rng.below(32) * 4,
                address: block * 64 + rng.below(64),
                core: 0,
                kind,
                non_memory_before: rng.below(256) as u8,
                dependent: rng.below(4) == 0,
            });
        }
    }
    stream.truncate(len);
    stream
}

fn lru_llc(config: &HierarchyConfig) -> Cache {
    Cache::new(
        config.llc,
        Box::new(Lru::new(config.llc.sets(), config.llc.associativity())),
    )
}

/// One side of the lockstep: the same private levels run twice, once
/// with an LLC behind them and once recording.
struct Side<L, P> {
    live: CorePrivate<L, P>,
    llc: Cache,
    recorder: CorePrivate<L, P>,
    recording: LlcRecording,
}

impl<L: PrivateCache, P: Prefetcher> Side<L, P> {
    fn step(
        &mut self,
        access: &MemoryAccess,
        latencies: &mrp_cache::LevelLatencies,
    ) -> HierarchyAccess {
        self.recorder.access_recorded(access, &mut self.recording);
        self.live.access_with_llc(access, &mut self.llc, latencies)
    }

    fn stats(&self) -> (HierarchyStats, HierarchyStats) {
        let mut live = self.live.stats();
        live.llc = *self.llc.stats();
        (live, self.recorder.stats())
    }
}

/// Runs `stream` through the fast private levels and `reference`'s, in
/// lockstep, reporting every disagreement.
fn run_private_lockstep_with<L: PrivateCache, P: Prefetcher>(
    config: &HierarchyConfig,
    stream: &[MemoryAccess],
    reference: impl Fn() -> CorePrivate<L, P>,
) -> DivergenceReport {
    // Recording zero instructions pulls nothing and yields an empty log
    // to append to.
    let empty = || LlcRecording::record(SUBJECT, std::iter::empty(), config, 0, 0);
    let mut fast = Side {
        live: CorePrivate::new(config),
        llc: lru_llc(config),
        recorder: CorePrivate::new(config),
        recording: empty(),
    };
    let mut reference = Side {
        live: reference(),
        llc: lru_llc(config),
        recorder: reference(),
        recording: empty(),
    };
    let mut report = DivergenceReport::default();
    let divergence = |index: usize, access: Option<MemoryAccess>, detail: String| Divergence {
        access_index: index,
        access,
        subject: SUBJECT.to_string(),
        detail,
    };
    for (i, access) in stream.iter().enumerate() {
        let before = fast.recording.len();
        let a = fast.step(access, &config.latencies);
        let b = reference.step(access, &config.latencies);
        if a != b {
            report.push(divergence(
                i,
                Some(*access),
                format!("hierarchy access diverged: fast {a:?} vs reference {b:?}"),
            ));
        }
        let (fast_len, ref_len) = (fast.recording.len(), reference.recording.len());
        if fast_len != ref_len {
            report.push(divergence(
                i,
                Some(*access),
                format!("recorded events diverged: fast {fast_len} vs reference {ref_len}"),
            ));
        } else {
            for e in before..fast_len {
                let (x, y) = (fast.recording.event_at(e), reference.recording.event_at(e));
                if x != y {
                    report.push(divergence(
                        i,
                        Some(*access),
                        format!("recorded event {e} diverged: fast {x:?} vs reference {y:?}"),
                    ));
                }
            }
        }
        if report.saturated() {
            break;
        }
    }
    let end = stream.len();
    let (fast_live, fast_rec) = fast.stats();
    let (ref_live, ref_rec) = reference.stats();
    if fast_live != ref_live {
        report.push(divergence(
            end,
            None,
            format!("hierarchy stats diverged: fast {fast_live:?} vs reference {ref_live:?}"),
        ));
    }
    if fast_rec != ref_rec {
        report.push(divergence(
            end,
            None,
            format!("recording stats diverged: fast {fast_rec:?} vs reference {ref_rec:?}"),
        ));
    }
    if fast.recording.llc_blocks() != reference.recording.llc_blocks() {
        report.push(divergence(
            end,
            None,
            "LLC-order event lists diverged".to_string(),
        ));
    }
    report
}

/// The reference private levels for `config`: [`ReferenceCache`] + `Lru`
/// L1/L2 and the [`ReferencePrefetcher`].
fn reference_private(config: &HierarchyConfig) -> CorePrivate<ReferenceCache, ReferencePrefetcher> {
    let level =
        |c: CacheConfig| ReferenceCache::new(c, Box::new(Lru::new(c.sets(), c.associativity())));
    CorePrivate::from_parts(
        level(config.l1d),
        level(config.l2),
        config.prefetch.then(ReferencePrefetcher::new),
    )
}

/// Lockstep of one fuzz job against the reference private levels.
pub fn check_private_job(seed: u64, job: usize, accesses: usize) -> DivergenceReport {
    let config = private_config(seed, job);
    let stream = gen_private_stream(seed, job, accesses);
    run_private_lockstep_with(&config, &stream, || reference_private(&config))
}

/// The private-level pass: one lockstep report per job, fanned out over
/// the `mrp-runtime` pool.
pub fn run_private_check(seed: u64, jobs: usize, accesses_per_job: usize) -> Vec<DivergenceReport> {
    map_indexed(jobs, |job| check_private_job(seed, job, accesses_per_job))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzed_jobs_agree_and_issue_prefetches_both_ways() {
        for job in 0..8 {
            let report = check_private_job(5, job, 20_000);
            assert!(report.is_clean(), "job {job}:\n{report}");
        }
        // The L1 miss stream confirms streams in both directions.
        let config = private_config(5, 1);
        let stream = gen_private_stream(5, 1, 20_000);
        let mut l1 = mrp_cache::LruArray::new(config.l1d);
        let mut prefetcher = mrp_cache::StreamPrefetcher::new();
        let (mut ascending, mut descending) = (0, 0);
        for a in stream.iter().filter(|a| !l1.access(a, false)) {
            for &b in prefetcher.on_l1_miss(a.block()).iter() {
                if b > a.block() {
                    ascending += 1;
                } else {
                    descending += 1;
                }
            }
        }
        assert!(config.prefetch);
        assert!(
            ascending > 0 && descending > 0,
            "{ascending} up / {descending} down"
        );
    }

    /// The reference prefetcher with its last request of every advance
    /// dropped: a planted bug the pass must catch.
    struct Truncating(ReferencePrefetcher);

    impl Prefetcher for Truncating {
        type Requests = Vec<u64>;

        fn on_l1_miss(&mut self, block: u64) -> Vec<u64> {
            let mut requests = self.0.on_l1_miss(block);
            requests.pop();
            requests
        }
    }

    #[test]
    fn planted_prefetcher_bug_is_caught() {
        let config = private_config(5, 0);
        let stream = gen_private_stream(5, 0, 20_000);
        let report = run_private_lockstep_with(&config, &stream, || {
            let level = |c: CacheConfig| {
                ReferenceCache::new(c, Box::new(Lru::new(c.sets(), c.associativity())))
            };
            CorePrivate::from_parts(
                level(config.l1d),
                level(config.l2),
                Some(Truncating(ReferencePrefetcher::new())),
            )
        });
        assert!(!report.is_clean());
    }
}
