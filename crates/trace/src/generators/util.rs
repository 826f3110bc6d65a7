//! Shared helpers for generators: seeded RNG construction, site-PC
//! synthesis, and a Zipf sampler.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::record::{AccessKind, MemoryAccess, BLOCK_BYTES};

/// Builds the deterministic RNG used by all generators.
pub(crate) fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Synthesizes the PC for access site `site` of a generator whose code
/// region starts at `pc_base`.
///
/// Real programs' memory-instruction PCs are scattered across roughly
/// bits 2..22 of the text segment (different functions, inlined call
/// sites), and PC-based predictor features extract arbitrary bit ranges.
/// Packing sites 4 bytes apart would leave all high PC bits constant and
/// blind such features, so sites are spread deterministically over a 1MB
/// code region instead.
#[inline]
pub(crate) fn site_pc(pc_base: u64, site: u32) -> u64 {
    let h = (u64::from(site) + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(pc_base.rotate_left(17));
    pc_base + ((h >> 40) & 0xf_fffc)
}

/// Deterministic per-site non-memory instruction gap in `[2, 6]`.
///
/// Keeping the gap a function of the site (rather than random) makes traces
/// compact to regenerate and keeps instruction counts stable across policy
/// comparisons.
#[inline]
pub(crate) fn site_gap(site: u32) -> u8 {
    2 + (site % 5) as u8
}

/// Builds a [`MemoryAccess`] for a generator access site.
#[inline]
pub(crate) fn access(pc_base: u64, site: u32, address: u64, kind: AccessKind) -> MemoryAccess {
    MemoryAccess {
        pc: site_pc(pc_base, site),
        address,
        core: 0,
        kind,
        non_memory_before: site_gap(site),
        dependent: false,
    }
}

/// Like [`access`], but marks the record as address-dependent on the
/// previous access (serialized by the timing model).
#[inline]
pub(crate) fn dependent_access(
    pc_base: u64,
    site: u32,
    address: u64,
    kind: AccessKind,
) -> MemoryAccess {
    MemoryAccess {
        dependent: true,
        ..access(pc_base, site, address, kind)
    }
}

/// Converts a block index within a region to a byte address, with a
/// deterministic sub-block offset derived from the index so the `offset`
/// feature sees varied but correlated values.
#[inline]
pub(crate) fn block_to_addr(region_base: u64, block_index: u64) -> u64 {
    let offset = (block_index.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59) & 0x38;
    region_base + block_index * BLOCK_BYTES + offset
}

/// A Zipf(θ) sampler over ranks `0..n` using an inverted-CDF table with a
/// bucketed guide index.
///
/// Rank 0 is the most popular item. The table costs `n` doubles plus a
/// `u32` guide entry per 8 ranks: 2.1 MiB at 2^18 ranks, the suite's
/// largest (generators cap `n` at 2^20). The guide brackets each draw
/// to a handful of adjacent CDF entries, so sampling is O(1) expected
/// instead of a full binary search over a multi-megabyte table (which
/// cache-misses on every probe level and dominated trace generation for
/// the large-footprint workloads).
///
/// The table is a pure function of `(n, θ)`, never of a seed, so it is
/// built once per process and shared: a sampler is a handle on an
/// interned [`Arc`]ed table, and cloning one is cheap.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    table: Arc<ZipfTable>,
}

#[derive(Debug)]
struct ZipfTable {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF value is `>= j / B` where
    /// `B = guide.len() - 1` is a power of two. A uniform draw `u` then
    /// lies in `cdf[guide[j] .. guide[j + 1]]` for `j = floor(u * B)`.
    guide: Vec<u32>,
}

/// Interned tables keyed by `(n, θ.to_bits())`. An entry lives while a
/// sampler holds it, and then until the next miss.
type Tables = HashMap<(usize, u64), Arc<ZipfTable>>;

fn tables() -> MutexGuard<'static, Tables> {
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    // Every update under the lock is a single map operation that leaves
    // the map valid, so a guard poisoned by a panicking holder is sound.
    TABLES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl ZipfTable {
    fn build(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank as f64) + 1.0).powf(theta);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        // One bucket per 8 ranks (power of two so `u * B` is exact —
        // scaling by 2^k only shifts the exponent — and `j / B` below is
        // exact for the same reason). Built in one pass: O(n + B).
        let buckets = (n.next_power_of_two() / 8).max(1);
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0usize;
        for j in 0..=buckets {
            let threshold = j as f64 / buckets as f64;
            while rank < n && cdf[rank] < threshold {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        ZipfTable { cdf, guide }
    }
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with skew `theta` (0 = uniform).
    ///
    /// Reuses the process's table for `(n, theta)` if one is interned.
    /// Otherwise it first drops every interned table no sampler holds,
    /// then builds the new one outside the lock, so concurrent callers
    /// never wait behind a build.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "ZipfSampler requires at least one rank");
        let key = (n, theta.to_bits());
        {
            let mut tables = tables();
            if let Some(table) = tables.get(&key) {
                return ZipfSampler {
                    table: Arc::clone(table),
                };
            }
            tables.retain(|_, table| Arc::strong_count(table) > 1);
        }
        let built = Arc::new(ZipfTable::build(n, theta));
        // A racing builder of the same key may have inserted first; its
        // table is identical, so keep whichever landed.
        let table = Arc::clone(tables().entry(key).or_insert(built));
        ZipfSampler { table }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// Whether the sampler has zero ranks (never true; see [`ZipfSampler::new`]).
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// Draws a rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.sample_at(rng.gen())
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to, via the guide
    /// index.
    ///
    /// Returns exactly the rank [`ZipfSampler::rank_by_binary_search`]
    /// would: the CDF is strictly increasing, so the answer is the
    /// partition point of `cdf[i] < u`, and the guide bucket
    /// `[guide[j], guide[j+1]]` provably brackets it
    /// (`j / B <= u < (j + 1) / B`) for any power-of-two `B`.
    pub fn sample_at(&self, u: f64) -> usize {
        let ZipfTable { cdf, guide } = &*self.table;
        let buckets = guide.len() - 1;
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let lo = guide[j] as usize;
        let hi = guide[j + 1] as usize;
        let i = lo + cdf[lo..hi].partition_point(|&probe| probe < u);
        i.min(cdf.len() - 1)
    }

    /// Reference form of [`ZipfSampler::sample_at`]: a binary search over
    /// the whole CDF, with no guide acceleration. Kept for differential
    /// tests of the guided path.
    pub fn rank_by_binary_search(&self, u: f64) -> usize {
        let cdf = &self.table.cdf;
        let i = match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) | Err(i) => i,
        };
        i.min(cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let sampler = ZipfSampler::new(1024, 1.1);
        let mut rng = rng_from_seed(9);
        let mut low = 0usize;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if sampler.sample(&mut rng) < 16 {
                low += 1;
            }
        }
        // With theta=1.1 the top 16 of 1024 ranks hold well over a third of
        // the mass; uniform would give ~1.6%.
        assert!(low > DRAWS / 3, "low-rank draws: {low}/{DRAWS}");
    }

    #[test]
    fn zipf_zero_theta_is_roughly_uniform() {
        let sampler = ZipfSampler::new(64, 0.0);
        let mut rng = rng_from_seed(10);
        let mut counts = [0usize; 64];
        for _ in 0..64_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let (min, max) = counts
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(max < min * 2, "uniform sampler too skewed: {min}..{max}");
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let sampler = ZipfSampler::new(3, 2.0);
        let mut rng = rng_from_seed(11);
        for _ in 0..1000 {
            assert!(sampler.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    /// Every `(n, θ)` table the suite builds: `zipf.hot`, `zipf.flat`,
    /// `fields.small`, `fields.big`, `kv.server`, `kv.uniform`, the
    /// `phased` mix's Zipf and fields members, `btree.probe` and the SAT
    /// mix's literal gathers.
    const SUITE_TABLES: [(usize, f64); 10] = [
        (262_144, 1.2),
        (131_072, 0.6),
        (65_536, 0.9),
        (262_144, 0.5),
        (32_768, 1.1),
        (65_536, 0.0),
        (65_536, 1.0),
        (32_768, 0.8),
        (262_144, 0.9),
        (32_768, 1.3),
    ];

    /// Small shapes plus the suite's own tables.
    fn guide_cases() -> impl Iterator<Item = (usize, f64)> {
        [
            (1usize, 1.0),
            (7, 0.0),
            (9, 2.0),
            (513, 1.1),
            (1024, 1.2),
            (40_000, 0.6),
        ]
        .into_iter()
        .chain(SUITE_TABLES)
    }

    #[test]
    fn guide_sample_matches_full_binary_search() {
        // The guide index is a pure accelerator: every draw must resolve
        // to the same rank a binary search over the whole CDF would find.
        for (n, theta) in guide_cases() {
            let sampler = ZipfSampler::new(n, theta);
            let mut rng = rng_from_seed(42);
            for _ in 0..5_000 {
                let u: f64 = rng.gen();
                assert_eq!(
                    sampler.sample_at(u),
                    sampler.rank_by_binary_search(u),
                    "n={n} theta={theta} u={u}"
                );
            }
            // Draws at the CDF entries themselves sit on bucket edges.
            for &u in sampler.table.cdf.iter().step_by(97) {
                assert_eq!(
                    sampler.sample_at(u),
                    sampler.rank_by_binary_search(u),
                    "n={n} theta={theta} u={u}"
                );
            }
        }
    }

    #[test]
    fn guide_brackets_every_cdf_entry() {
        for (n, theta) in guide_cases() {
            let sampler = ZipfSampler::new(n, theta);
            let ZipfTable { cdf, guide } = &*sampler.table;
            let buckets = guide.len() - 1;
            assert!(buckets.is_power_of_two());
            assert_eq!(
                buckets,
                (n.next_power_of_two() / 8).max(1),
                "one bucket per 8 ranks"
            );
            assert_eq!(guide[0], 0);
            // The final CDF entry is exactly 1.0, so the last guide entry
            // points at (or just before) it, never past the table.
            assert!(guide[buckets] as usize <= n);
            assert!(guide[buckets] as usize >= n - 1);
            for w in guide.windows(2) {
                assert!(w[0] <= w[1], "guide must be monotone");
            }
            for (rank, &value) in cdf.iter().enumerate() {
                let j = ((value * buckets as f64) as usize).min(buckets - 1);
                assert!(
                    guide[j] as usize <= rank && rank <= guide[j + 1] as usize,
                    "n={n} theta={theta} rank={rank} bucket={j}"
                );
            }
        }
    }

    #[test]
    fn equal_keys_share_one_table() {
        // Keys no other test builds, so only this test holds them.
        let a = ZipfSampler::new(5, 0.321);
        let b = ZipfSampler::new(5, 0.321);
        assert!(Arc::ptr_eq(&a.table, &b.table));
        let c = ZipfSampler::new(5, 0.322);
        assert!(!Arc::ptr_eq(&a.table, &c.table));
        let d = ZipfSampler::new(6, 0.321);
        assert!(!Arc::ptr_eq(&a.table, &d.table));
    }

    #[test]
    fn next_miss_drops_unreferenced_tables_and_keeps_held_ones() {
        // Keys no other test builds: a miss on any key, from any test,
        // may drop `unheld`, but none may drop `held`.
        let held = ZipfSampler::new(11, 0.123);
        let unheld = Arc::downgrade(&ZipfSampler::new(13, 0.123).table);
        let _miss = ZipfSampler::new(17, 0.123);
        assert!(
            unheld.upgrade().is_none(),
            "unreferenced table survived a miss"
        );
        assert!(
            Arc::ptr_eq(&ZipfSampler::new(11, 0.123).table, &held.table),
            "a held table must stay interned"
        );
        // A dropped key is rebuilt on demand, bit for bit.
        let rebuilt = ZipfSampler::new(13, 0.123);
        assert_eq!(rebuilt.table.cdf, ZipfTable::build(13, 0.123).cdf);
    }

    #[test]
    fn block_to_addr_is_within_block() {
        for i in 0..1000u64 {
            let addr = block_to_addr(0x1000_0000, i);
            assert_eq!((addr - 0x1000_0000) / BLOCK_BYTES, i);
        }
    }

    #[test]
    fn site_pcs_are_distinct() {
        let a = site_pc(0x400000, 0);
        let b = site_pc(0x400000, 1);
        assert_ne!(a, b);
    }
}
