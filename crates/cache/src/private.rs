//! The private levels' tag arrays.
//!
//! L1D and L2 always run true LRU (§4.1), so they do not need the
//! general [`Cache`](crate::Cache), whose boxed
//! [`ReplacementPolicy`](crate::ReplacementPolicy) costs up to six
//! virtual calls and an [`AccessInfo`](crate::AccessInfo) build per
//! probe. [`LruArray`] is the same tag array with LRU folded in, and
//! [`PrivateCache`] is the interface the private-level step drives, so
//! a reference model can stand in for it.

use mrp_trace::MemoryAccess;

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// One private cache level as the private-level step
/// ([`crate::hierarchy::CorePrivate`]) drives it: no bypass, fill on
/// every miss.
pub trait PrivateCache {
    /// Simulates one access (`is_prefetch` marks prefetch fills, which
    /// are not counted as demand traffic); returns whether it hit.
    fn access(&mut self, access: &MemoryAccess, is_prefetch: bool) -> bool;

    /// Statistics accumulated so far.
    fn stats(&self) -> CacheStats;
}

/// Tag of a way that holds no block. Block addresses are byte addresses
/// shifted right by the block offset, so no block equals it.
const EMPTY: u64 = u64::MAX;

/// Widest set [`LruArray`] supports: its recency stack packs one 4-bit
/// way number per way into a `u64`.
pub const MAX_WAYS: u32 = 16;

/// A set-associative tag array with exact LRU replacement.
///
/// Each set keeps its tags and a recency stack: the way numbers packed
/// four bits apiece, most recent in the low nibble. Empty ways hold the
/// tag `u64::MAX`, which no block equals, so a hit needs no validity
/// check. The stack starts out as the ways in descending order, least
/// recent (way 0) last. Filling a way moves it to the front, so the
/// stack is always the filled ways in recency order followed by the
/// empty ways in descending order, and its last nibble is the victim.
///
/// Bit-identical to a [`Cache`](crate::Cache) driving
/// [`Lru`](crate::policies::Lru), access for access and counter for
/// counter:
///
/// * while a set has empty ways, the victim is the lowest of them, the
///   `(!valid).trailing_zeros()` way `Cache` fills;
/// * in a full set, the victim is the least recently hit or filled way.
///   `Lru` stamps every hit and fill from one clock, so the stamps in a
///   full set are distinct and name the same way;
/// * hits, fills, prefetch hits, prefetch fills and evictions count into
///   [`CacheStats`] exactly where `Cache` counts them (LRU never
///   bypasses).
#[derive(Debug, Clone)]
pub struct LruArray {
    config: CacheConfig,
    assoc: usize,
    /// `tags[set * assoc + way]` is the resident block or `EMPTY`.
    tags: Vec<u64>,
    /// Per-set recency stack (see the type docs).
    stacks: Vec<u64>,
    stats: CacheStats,
}

impl LruArray {
    /// Creates an empty array with `config`'s geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds [`MAX_WAYS`].
    pub fn new(config: CacheConfig) -> Self {
        let assoc = config.associativity() as usize;
        assert!(
            assoc <= MAX_WAYS as usize,
            "private levels support at most {MAX_WAYS} ways, not {assoc}"
        );
        LruArray {
            config,
            assoc,
            tags: vec![EMPTY; config.sets() as usize * assoc],
            stacks: vec![empty_stack(assoc); config.sets() as usize],
            stats: CacheStats::default(),
        }
    }
}

impl PrivateCache for LruArray {
    #[inline]
    fn access(&mut self, access: &MemoryAccess, is_prefetch: bool) -> bool {
        let block = access.block();
        let set = self.config.set_of(block) as usize;
        let base = set * self.assoc;
        let tags = &mut self.tags[base..base + self.assoc];
        let stack = self.stacks[set];
        if let Some(way) = tags.iter().position(|&tag| tag == block) {
            if is_prefetch {
                self.stats.prefetch_hits += 1;
            } else {
                self.stats.demand_hits += 1;
            }
            self.stacks[set] = to_front(stack, stack_position(stack, way as u64), way as u64);
            return true;
        }

        if is_prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_misses += 1;
        }
        let last = self.assoc - 1;
        let victim = (stack >> (4 * last)) & 0xf;
        if tags[victim as usize] != EMPTY {
            self.stats.evictions += 1;
        }
        tags[victim as usize] = block;
        self.stacks[set] = to_front(stack, last, victim);
        false
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A recency stack of `ways` ways (at most 16) in descending order, most
/// recent first: way 0 is least recent.
pub(crate) fn empty_stack(ways: usize) -> u64 {
    (0..ways as u64).fold(0, |stack, way| stack << 4 | way)
}

/// The nibble position of `way` in `stack`. Every way appears once, so
/// exactly one nibble is zero after the XOR; the borrow trick flags the
/// lowest zero nibble exactly.
#[inline]
pub(crate) fn stack_position(stack: u64, way: u64) -> usize {
    const LOW: u64 = 0x1111_1111_1111_1111;
    const HIGH: u64 = 0x8888_8888_8888_8888;
    let x = stack ^ (way * LOW);
    let zero = x.wrapping_sub(LOW) & !x & HIGH;
    zero.trailing_zeros() as usize / 4
}

/// `stack` with the nibble at `position` (holding `way`) moved to the
/// front.
#[inline]
pub(crate) fn to_front(stack: u64, position: usize, way: u64) -> u64 {
    let shift = 4 * position;
    let below = (1u64 << shift) - 1;
    // Nibbles above `position` stay; a 16th position has none.
    let above = (!0u64).checked_shl(shift as u32 + 4).unwrap_or(0);
    (stack & above) | (stack & below) << 4 | way
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::Cache;

    fn load(block: u64) -> MemoryAccess {
        MemoryAccess::load(0x400000, block * 64)
    }

    #[test]
    fn matches_cache_with_lru_access_for_access() {
        for (size, assoc) in [
            (64 * 8, 4),
            (32 * 1024, 8),
            (64 * 16 * 4, 16),
            (64 * 3 * 2, 3),
        ] {
            let config = CacheConfig::new(size, assoc);
            let mut array = LruArray::new(config);
            let mut cache = Cache::new(
                config,
                Box::new(Lru::new(config.sets(), config.associativity())),
            );
            let mut x = 0x2545_f491u64;
            for i in 0..50_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let footprint = u64::from(config.sets()) * u64::from(assoc) * 2;
                let block = if x.is_multiple_of(5) {
                    i % footprint
                } else {
                    (x >> 30) % footprint
                };
                let prefetch = (x >> 20).is_multiple_of(7);
                assert_eq!(
                    array.access(&load(block), prefetch),
                    cache.access(&load(block), prefetch).is_hit(),
                    "{size}/{assoc}: access {i}"
                );
            }
            assert_eq!(array.stats(), *cache.stats(), "{size}/{assoc}");
        }
    }

    #[test]
    fn full_set_evicts_least_recent() {
        let config = CacheConfig::new(64 * 8, 4); // 2 sets x 4 ways
        let mut a = LruArray::new(config);
        for i in 0..4u64 {
            assert!(!a.access(&load(i * 2), false));
        }
        assert!(a.access(&load(0), false)); // block 0 becomes MRU
        assert!(!a.access(&load(16), false)); // evicts block 2
        assert_eq!(a.stats().evictions, 1);
        assert!(a.access(&load(0), false));
        assert!(a.access(&load(16), false));
        assert!(!a.access(&load(2), false));
    }
}
