//! Shadow reference models: the obvious, slow forms of the optimized hot
//! paths.
//!
//! PR 2 specialized three inner loops away from their naive shapes: the
//! tag array became structure-of-arrays with validity bitmasks, feature
//! index computation became compiled straight-line plans, and the weight
//! tables became one flat arena addressed by precombined offsets. The
//! types here keep the naive shapes alive as first-class models —
//! [`ReferenceCache`] stores `Option<u64>` per way, and
//! [`ReferencePredictor`] keeps one `Vec<i8>` per feature indexed through
//! the interpretive [`Feature::index`] path — so the optimized
//! implementations can be checked against them access by access (see
//! [`crate::lockstep`]).
//!
//! The private levels and the timing model keep their earlier shapes
//! here too: [`ReferenceCache`] + `Lru` stands in for the concrete
//! `LruArray` L1/L2 and [`ReferencePrefetcher`] for the fixed-array
//! stream prefetcher, both driven through the simulator's own
//! private-level step (see [`crate::private_check`]), and
//! [`ReferenceCoreModel`] keeps the `VecDeque` window the ring replaced
//! (see [`crate::timing_check`]).
//!
//! Equivalence argument: both caches make identical way choices (the SoA
//! cache fills `(!valid_mask).trailing_zeros()`, the reference fills the
//! first `None` way — the same way; both snapshot occupants in way order
//! before `choose_victim`), and both drive the policy through the same
//! hook sequence, so two identically-constructed deterministic policy
//! instances observe identical inputs and stay bit-identical. For the
//! predictor, the flat arena offset of feature `i` is defined as
//! `base[i] + index[i]`, so per-table indices and arena offsets select
//! the same weights, and both sides apply the same saturation arithmetic.

use std::collections::VecDeque;

use mrp_cache::prefetch::{DEGREE, DISTANCE, MATCH_WINDOW, MAX_STREAMS};
use mrp_cache::{
    AccessInfo, AccessResult, CacheConfig, CacheStats, Prefetcher, PrivateCache, ReplacementPolicy,
};
use mrp_core::context::FeatureContext;
use mrp_core::feature::Feature;
use mrp_core::sampler::{
    clamp_confidence, event_feature, event_index, event_is_decrement, partial_tag, Sampler,
};
use mrp_core::tables::{WEIGHT_MAX, WEIGHT_MIN};
use mrp_cpu::CoreModelConfig;
use mrp_trace::MemoryAccess;

/// The naive array-of-`Option` cache model, driving the same
/// [`ReplacementPolicy`] hook protocol as the optimized
/// [`mrp_cache::Cache`] in the same order.
pub struct ReferenceCache {
    config: CacheConfig,
    /// `slots[set * assoc + way]` is the resident block, if any.
    slots: Vec<Option<u64>>,
    policy: Box<dyn ReplacementPolicy + Send>,
    stats: CacheStats,
}

impl ReferenceCache {
    /// Creates the reference cache.
    pub fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy + Send>) -> Self {
        let slots = config.sets() as usize * config.associativity() as usize;
        ReferenceCache {
            config,
            slots: vec![None; slots],
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the policy (for `on_core_access` forwarding).
    pub fn policy_mut(&mut self) -> &mut (dyn ReplacementPolicy + Send) {
        self.policy.as_mut()
    }

    /// The block resident in (`set`, `way`), if any.
    pub fn way_block(&self, set: u32, way: u32) -> Option<u64> {
        self.slots[set as usize * self.config.associativity() as usize + way as usize]
    }

    /// Looks a block up without touching policy or stats state.
    pub fn probe(&self, block: u64) -> bool {
        let set = self.config.set_of(block);
        let assoc = self.config.associativity() as usize;
        let base = set as usize * assoc;
        self.slots[base..base + assoc].contains(&Some(block))
    }

    /// Simulates one access with the reference tag array, mirroring the
    /// optimized cache's hook order exactly: `on_access`, then `on_hit` |
    /// (`should_bypass` → [`choose_victim` → `on_evict`] → `on_fill`).
    pub fn access(&mut self, access: &MemoryAccess, is_prefetch: bool) -> AccessResult {
        let info = AccessInfo::from_access(access, &self.config, is_prefetch);
        self.policy.on_access(&info);

        let assoc = self.config.associativity() as usize;
        let base = info.set as usize * assoc;
        let set_slots = &self.slots[base..base + assoc];
        let hit_way = set_slots.iter().position(|s| *s == Some(info.block));

        if let Some(way) = hit_way {
            if is_prefetch {
                self.stats.prefetch_hits += 1;
            } else {
                self.stats.demand_hits += 1;
            }
            self.policy.on_hit(&info, way as u32);
            return AccessResult::Hit;
        }

        if is_prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_misses += 1;
        }

        if self.policy.should_bypass(&info) {
            self.stats.bypasses += 1;
            return AccessResult::Bypassed;
        }

        // The optimized cache fills `(!valid_mask).trailing_zeros()` — the
        // lowest invalid way — which is exactly the first `None` slot here.
        let invalid_way = set_slots.iter().position(|s| s.is_none());
        let mut evicted = None;
        let way = match invalid_way {
            Some(w) => w,
            None => {
                let occupants: Vec<u64> = set_slots.iter().map(|s| s.expect("full set")).collect();
                let victim = self.policy.choose_victim(&info, &occupants);
                assert!(
                    (victim as usize) < assoc,
                    "policy chose way {victim} of {assoc}"
                );
                let block = occupants[victim as usize];
                self.policy.on_evict(info.set, victim, block);
                self.stats.evictions += 1;
                evicted = Some(block);
                victim as usize
            }
        };
        self.slots[base + way] = Some(info.block);
        self.policy.on_fill(&info, way as u32);
        AccessResult::Miss { evicted }
    }
}

/// A reference cache as a private level: the step only needs hit or
/// miss.
impl PrivateCache for ReferenceCache {
    fn access(&mut self, access: &MemoryAccess, is_prefetch: bool) -> bool {
        ReferenceCache::access(self, access, is_prefetch).is_hit()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[derive(Debug, Clone, Copy)]
struct ReferenceStream {
    head: i64,
    direction: i64,
    training_misses: u32,
    issued_until: i64,
    last_used: u64,
}

/// The stream prefetcher in its plain form: a growable list of streams
/// scanned with an early exit, a fresh `Vec` of requests per miss, and a
/// `min_by_key` over per-stream clock stamps for replacement.
#[derive(Debug, Default)]
pub struct ReferencePrefetcher {
    streams: Vec<ReferenceStream>,
    clock: u64,
}

impl ReferencePrefetcher {
    /// Creates an empty prefetcher.
    pub fn new() -> Self {
        ReferencePrefetcher::default()
    }
}

impl Prefetcher for ReferencePrefetcher {
    type Requests = Vec<u64>;

    fn on_l1_miss(&mut self, block: u64) -> Vec<u64> {
        self.clock += 1;
        let block = block as i64;

        // Match against an existing stream.
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            let delta = block - s.head;
            if delta != 0 && delta.abs() <= MATCH_WINDOW {
                // Prefer the stream whose direction agrees.
                let agrees = s.direction == 0 || delta.signum() == s.direction;
                if agrees {
                    best = Some(i);
                    break;
                }
            }
        }

        if let Some(i) = best {
            let s = &mut self.streams[i];
            s.last_used = self.clock;
            let delta = block - s.head;
            if s.direction == 0 {
                s.training_misses += 1;
                if s.training_misses >= 2 {
                    s.direction = delta.signum();
                    s.issued_until = block;
                }
                s.head = block;
                return Vec::new();
            }
            s.head = block;
            let target = block + s.direction * DISTANCE;
            let mut requests = Vec::new();
            let mut next = if s.direction > 0 {
                (s.issued_until + 1).max(block + 1)
            } else {
                (s.issued_until - 1).min(block - 1)
            };
            while requests.len() < DEGREE
                && (s.direction > 0 && next <= target || s.direction < 0 && next >= target)
            {
                if next >= 0 {
                    requests.push(next as u64);
                }
                s.issued_until = if s.direction > 0 {
                    s.issued_until.max(next)
                } else {
                    s.issued_until.min(next)
                };
                next += s.direction;
            }
            return requests;
        }

        // Allocate a new stream (LRU replacement among the 16).
        let entry = ReferenceStream {
            head: block,
            direction: 0,
            training_misses: 1,
            issued_until: block,
            last_used: self.clock,
        };
        if self.streams.len() < MAX_STREAMS {
            self.streams.push(entry);
        } else {
            let lru = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("streams nonempty");
            self.streams[lru] = entry;
        }
        Vec::new()
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    completes_at: u64,
    instructions: u32,
}

/// The core timing model with its window as a growable `VecDeque`, the
/// form `mrp_cpu::CoreModel`'s fixed ring replaced. Same constraints,
/// same arithmetic (see `CoreModel` for the model itself).
#[derive(Debug)]
pub struct ReferenceCoreModel {
    config: CoreModelConfig,
    cycle: u64,
    issued_instructions: u64,
    window: VecDeque<InFlight>,
    window_occupancy: u32,
    previous_completion: u64,
}

impl ReferenceCoreModel {
    /// Creates an idle core.
    pub fn new(config: CoreModelConfig) -> Self {
        assert!(config.width > 0, "width must be nonzero");
        assert!(config.window > 0, "window must be nonzero");
        ReferenceCoreModel {
            config,
            cycle: 0,
            issued_instructions: 0,
            window: VecDeque::new(),
            window_occupancy: 0,
            previous_completion: 0,
        }
    }

    /// Accounts one memory access (see `CoreModel::retire_access`).
    pub fn retire_access(&mut self, instructions: u32, latency: u64, dependent: bool) {
        let instructions = instructions.min(self.config.window);
        self.issued_instructions += u64::from(instructions);

        // Retire already-completed entries for free.
        while let Some(front) = self.window.front() {
            if front.completes_at <= self.cycle {
                self.window_occupancy -= front.instructions;
                self.window.pop_front();
            } else {
                break;
            }
        }

        // Stall for window space (in-order retirement).
        while self.window_occupancy + instructions > self.config.window {
            let front = self.window.pop_front().expect("occupancy implies entries");
            self.cycle = self.cycle.max(front.completes_at);
            self.window_occupancy -= front.instructions;
        }

        // Issue-bandwidth floor.
        self.cycle = self
            .cycle
            .max(self.issued_instructions / u64::from(self.config.width));

        // Dependency serialization.
        let issue_at = if dependent {
            self.cycle.max(self.previous_completion)
        } else {
            self.cycle
        };

        let completes_at = issue_at + latency;
        self.previous_completion = completes_at;
        self.window.push_back(InFlight {
            completes_at,
            instructions,
        });
        self.window_occupancy += instructions;
    }

    /// Cycle count if the core drained its window now.
    pub fn drained_cycles(&self) -> u64 {
        let last = self
            .window
            .back()
            .map(|e| e.completes_at)
            .unwrap_or(self.cycle);
        last.max(self.cycle)
            .max(self.issued_instructions / u64::from(self.config.width))
    }

    /// The core-local clock without draining.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions issued so far.
    pub fn instructions(&self) -> u64 {
        self.issued_instructions
    }

    /// Instructions per cycle over everything retired so far.
    pub fn ipc(&self) -> f64 {
        let cycles = self.drained_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.issued_instructions as f64 / cycles as f64
        }
    }

    /// Resets the clock and counters at the warmup/measurement boundary.
    pub fn reset_counters(&mut self) {
        self.cycle = 0;
        self.issued_instructions = 0;
        self.window.clear();
        self.window_occupancy = 0;
        self.previous_completion = 0;
    }
}

/// The naive per-table predictor model: one `Vec<i8>` per feature,
/// indices computed through the interpretive [`Feature::index`] path
/// instead of the compiled [`mrp_core::plan::FeaturePlan`], and weights
/// addressed `(table, index)` instead of by precombined arena offset.
pub struct ReferencePredictor {
    features: Vec<Feature>,
    tables: Vec<Vec<i8>>,
    sampler: Sampler,
    /// LLC sets between consecutive sampled sets (plain-division form of
    /// the optimized predictor's pow2-specialized check).
    sample_stride: u32,
}

impl ReferencePredictor {
    /// Creates the reference predictor with the paper's 6-bit weights,
    /// mirroring [`mrp_core::MultiperspectivePredictor::new`].
    pub fn new(features: Vec<Feature>, llc_sets: u32, sampler_sets: u32, theta: i32) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        assert!(
            sampler_sets > 0 && sampler_sets <= llc_sets,
            "sampler sets out of range"
        );
        let tables = features.iter().map(|f| vec![0i8; f.table_size()]).collect();
        let assocs: Vec<u8> = features.iter().map(|f| f.assoc).collect();
        ReferencePredictor {
            tables,
            sampler: Sampler::new(sampler_sets, assocs, theta),
            sample_stride: (llc_sets / sampler_sets).max(1),
            features,
        }
    }

    /// The feature set.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The sampler (for invariant checks).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The sampler set `llc_set` maps to, if it is a sampled set.
    fn sampler_set(&self, llc_set: u32) -> Option<u32> {
        if !llc_set.is_multiple_of(self.sample_stride) {
            return None;
        }
        let quotient = llc_set / self.sample_stride;
        (quotient < self.sampler.sets()).then_some(quotient)
    }

    /// Per-table indices for an access context, via [`Feature::index`].
    pub fn compute_indices(&self, ctx: &FeatureContext<'_>) -> Vec<u16> {
        self.features.iter().map(|f| f.index(ctx)).collect()
    }

    /// Confidence: the loop-fold sum of the selected per-table weights.
    pub fn confidence(&self, indices: &[u16]) -> i32 {
        assert_eq!(indices.len(), self.tables.len(), "index vector arity");
        self.tables
            .iter()
            .zip(indices)
            .map(|(table, &i)| i32::from(table[usize::from(i)]))
            .sum()
    }

    /// Presents an access to the sampler if its set is sampled, applying
    /// training with the same saturation arithmetic as the flat arena.
    pub fn train(&mut self, llc_set: u32, block: u64, indices: &[u16], confidence: i32) {
        let Some(sampler_set) = self.sampler_set(llc_set) else {
            return;
        };
        let mut events = Vec::new();
        let _ = self.sampler.access(
            sampler_set,
            partial_tag(block),
            indices,
            clamp_confidence(confidence),
            &mut events,
        );
        // The packed event words carry the feature id in their high bits
        // precisely for this consumer: the reference stores per-table
        // indices, so it needs the feature to pick the table where the
        // optimized predictor's precombined arena offsets don't.
        for &event in &events {
            let w = &mut self.tables[usize::from(event_feature(event))]
                [usize::from(event_index(event))];
            *w = if event_is_decrement(event) {
                (*w).saturating_sub(1).max(WEIGHT_MIN)
            } else {
                (*w).saturating_add(1).min(WEIGHT_MAX)
            };
        }
    }

    /// Reads one weight (for the lockstep full-state sweep).
    pub fn weight(&self, table: usize, index: usize) -> i8 {
        self.tables[table][index]
    }

    /// Size of `table` (for the lockstep full-state sweep).
    pub fn table_len(&self, table: usize) -> usize {
        self.tables[table].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::Lru;
    use mrp_core::feature::FeatureKind;

    fn small() -> ReferenceCache {
        let config = CacheConfig::new(64 * 8, 4); // 2 sets x 4 ways
        ReferenceCache::new(
            config,
            Box::new(Lru::new(config.sets(), config.associativity())),
        )
    }

    fn load(block: u64) -> MemoryAccess {
        MemoryAccess::load(0x400000, block * 64)
    }

    #[test]
    fn reference_cache_mirrors_basic_protocol() {
        let mut c = small();
        assert!(c.access(&load(10), false).is_miss());
        assert!(c.access(&load(10), false).is_hit());
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
        assert!(c.probe(10));
        assert!(!c.probe(11));
    }

    #[test]
    fn reference_cache_evicts_lru_from_full_set() {
        let mut c = small();
        for i in 0..4u64 {
            assert_eq!(
                c.access(&load(i * 2), false),
                AccessResult::Miss { evicted: None }
            );
        }
        let r = c.access(&load(8 * 2), false);
        assert_eq!(r, AccessResult::Miss { evicted: Some(0) });
        assert!(!c.probe(0));
    }

    #[test]
    fn reference_predictor_matches_feature_table_sizes() {
        let features = vec![
            Feature::new(16, FeatureKind::Bias, false),
            Feature::new(6, FeatureKind::Burst, true),
        ];
        let p = ReferencePredictor::new(features.clone(), 256, 32, 40);
        assert_eq!(p.table_len(0), 1);
        assert_eq!(p.table_len(1), 256);
        let ctx = FeatureContext {
            pc: 0x400100,
            address: 0x8040,
            pc_history: &[],
            is_mru: false,
            is_insert: true,
            last_miss: false,
        };
        let idx = p.compute_indices(&ctx);
        assert_eq!(idx.len(), 2);
        assert_eq!(p.confidence(&idx), 0);
    }

    #[test]
    fn reference_training_saturates_at_weight_bounds() {
        let features = vec![Feature::new(1, FeatureKind::Bias, false)];
        let mut p = ReferencePredictor::new(features, 64, 64, 300);
        // Distinct blocks through sampled set 0: every insertion demotes
        // the previous one past A=1, incrementing the bias weight.
        for i in 0..100u64 {
            let idx = vec![0u16];
            let c = p.confidence(&idx);
            p.train(0, i * 64 + 7, &idx, c);
        }
        assert_eq!(p.weight(0, 0), WEIGHT_MAX);
    }
}
