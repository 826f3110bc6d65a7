//! Stream prefetcher.
//!
//! Models the paper's prefetcher (§4.1): "It starts a stream on a L1 cache
//! miss and waits for at most two misses to decide on the direction of the
//! stream. After that it starts to generate and send prefetch requests. It
//! can track 16 separate streams. The replacement policy for the streams is
//! LRU."

/// Maximum simultaneously tracked streams.
pub const MAX_STREAMS: usize = 16;

// The stream recency stack packs one 4-bit slot number per stream.
const _: () = assert!(MAX_STREAMS <= 16);

/// How far (in blocks) a miss may land from a stream's head and still be
/// matched to it.
pub const MATCH_WINDOW: i64 = 16;

/// Prefetch degree: blocks issued per confirmed-stream advance.
pub const DEGREE: usize = 4;

/// Prefetch distance: how far ahead of the stream head requests run.
/// Must outrun the in-flight fill delay modeled by the hierarchy.
pub const DISTANCE: i64 = 16;

/// Head of a slot no stream has claimed yet: further from every block
/// than [`MATCH_WINDOW`], so no miss matches it.
const UNCLAIMED: i64 = i64::MIN / 2;

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    /// Misses observed while training (direction decided at 2).
    training_misses: u32,
    /// Furthest block already requested, so requests are not re-issued.
    issued_until: i64,
}

/// A prefetcher trained on the L1 miss stream, as the private-level step
/// drives it ([`crate::hierarchy::CorePrivate`]).
pub trait Prefetcher {
    /// The prefetch block addresses one miss issues, in issue order.
    type Requests: AsRef<[u64]>;

    /// Observes an L1 miss to `block`; returns the prefetch block
    /// addresses to issue (possibly none).
    fn on_l1_miss(&mut self, block: u64) -> Self::Requests;
}

/// The at most [`DEGREE`] requests of one confirmed-stream advance, held
/// inline so the miss path never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchRequests {
    blocks: [u64; DEGREE],
    len: u8,
}

impl PrefetchRequests {
    #[inline]
    fn push(&mut self, block: u64) {
        self.blocks[usize::from(self.len)] = block;
        self.len += 1;
    }
}

impl std::ops::Deref for PrefetchRequests {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl AsRef<[u64]> for PrefetchRequests {
    #[inline]
    fn as_ref(&self) -> &[u64] {
        self
    }
}

/// A 16-entry stream prefetcher trained on L1 miss blocks.
///
/// The streams live in fixed arrays, so neither training nor issuing
/// allocates. A miss matches the first stream in slot order whose head
/// lies within [`MATCH_WINDOW`] in an agreeing direction; the scan reads
/// only the heads and directions and stops at the first match (measured
/// faster than a branch-free match mask over all 16 slots). A miss no
/// stream matches claims the least recently used slot. Recency is a
/// stack of slot numbers packed four bits apiece, most recent first;
/// it starts out as the slots in descending order, so until all 16 are
/// claimed the least recent one is the lowest unclaimed slot.
#[derive(Debug)]
pub struct StreamPrefetcher {
    /// Most recent miss block per stream ([`UNCLAIMED`] if none).
    heads: [i64; MAX_STREAMS],
    /// +1 / -1 once confirmed; 0 while training.
    directions: [i64; MAX_STREAMS],
    streams: [StreamEntry; MAX_STREAMS],
    /// Slot recency stack, least recent in the top nibble.
    recency: u64,
}

impl Default for StreamPrefetcher {
    fn default() -> Self {
        StreamPrefetcher {
            heads: [UNCLAIMED; MAX_STREAMS],
            directions: [0; MAX_STREAMS],
            streams: [StreamEntry::default(); MAX_STREAMS],
            recency: crate::private::empty_stack(MAX_STREAMS),
        }
    }
}

impl StreamPrefetcher {
    /// Creates an empty prefetcher.
    pub fn new() -> Self {
        StreamPrefetcher::default()
    }

    /// Moves `slot` to the front of the recency stack.
    #[inline]
    fn touch(&mut self, slot: usize) {
        let position = crate::private::stack_position(self.recency, slot as u64);
        self.recency = crate::private::to_front(self.recency, position, slot as u64);
    }
}

impl Prefetcher for StreamPrefetcher {
    type Requests = PrefetchRequests;

    fn on_l1_miss(&mut self, block: u64) -> PrefetchRequests {
        let block = block as i64;
        let mut requests = PrefetchRequests::default();

        // Match against an existing stream: the first whose direction
        // agrees.
        let matched = self
            .heads
            .iter()
            .zip(&self.directions)
            .position(|(&head, &direction)| {
                let delta = block - head;
                delta != 0
                    && delta.unsigned_abs() <= MATCH_WINDOW as u64
                    && (direction == 0 || delta.signum() == direction)
            });
        let Some(slot) = matched else {
            // Claim the least recently used slot for a new stream.
            let slot = (self.recency >> (4 * (MAX_STREAMS - 1))) as usize;
            self.touch(slot);
            self.heads[slot] = block;
            self.directions[slot] = 0;
            self.streams[slot] = StreamEntry {
                training_misses: 1,
                issued_until: block,
            };
            return requests;
        };
        self.touch(slot);
        let delta = block - self.heads[slot];
        self.heads[slot] = block;
        let direction = self.directions[slot];
        let s = &mut self.streams[slot];
        if direction == 0 {
            s.training_misses += 1;
            if s.training_misses >= 2 {
                self.directions[slot] = delta.signum();
                s.issued_until = block;
            }
            return requests;
        }
        // Confirmed stream: run requests up to DISTANCE ahead, starting
        // strictly beyond both the current miss and anything already
        // issued.
        let target = block + direction * DISTANCE;
        let mut next = if direction > 0 {
            (s.issued_until + 1).max(block + 1)
        } else {
            (s.issued_until - 1).min(block - 1)
        };
        while requests.len() < DEGREE
            && (direction > 0 && next <= target || direction < 0 && next >= target)
        {
            if next >= 0 {
                requests.push(next as u64);
            }
            s.issued_until = if direction > 0 {
                s.issued_until.max(next)
            } else {
                s.issued_until.min(next)
            };
            next += direction;
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_misses_to_confirm_direction() {
        let mut p = StreamPrefetcher::new();
        assert!(p.on_l1_miss(100).is_empty()); // allocate
        assert!(p.on_l1_miss(101).is_empty()); // second miss: direction set
        let reqs = p.on_l1_miss(102); // confirmed: prefetching starts
        assert!(!reqs.is_empty(), "confirmed stream should prefetch");
        assert!(reqs.iter().all(|&b| b > 102));
        let more = p.on_l1_miss(103);
        assert!(more.iter().all(|&b| b > 103));
    }

    #[test]
    fn descending_streams_prefetch_downward() {
        let mut p = StreamPrefetcher::new();
        p.on_l1_miss(1000);
        p.on_l1_miss(999);
        p.on_l1_miss(998);
        let reqs = p.on_l1_miss(997);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|&b| b < 997));
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = StreamPrefetcher::new();
        let mut total = 0;
        for i in 0..100u64 {
            // Jumps of 1000 blocks never match the window.
            total += p.on_l1_miss(i * 1000).len();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn requests_are_not_reissued() {
        let mut p = StreamPrefetcher::new();
        for b in 0..20u64 {
            p.on_l1_miss(b);
        }
        let mut seen = std::collections::HashSet::new();
        let mut p2 = StreamPrefetcher::new();
        for b in 0..40u64 {
            for &r in p2.on_l1_miss(b).iter() {
                assert!(seen.insert(r), "block {r} prefetched twice");
            }
        }
    }

    #[test]
    fn tracks_at_most_16_streams() {
        let mut p = StreamPrefetcher::new();
        // Streams at 0, 10_000, ... 390_000; the first 24 are replaced.
        for i in 0..40u64 {
            p.on_l1_miss(i * 10_000);
        }
        let live = p.heads.iter().filter(|&&h| h != UNCLAIMED).count();
        assert_eq!(live, MAX_STREAMS);
        // A stream still tracked confirms its direction on its second
        // miss and prefetches on the third...
        p.on_l1_miss(390_001);
        assert!(!p.on_l1_miss(390_002).is_empty());
        // ...while an evicted one starts over.
        p.on_l1_miss(1);
        assert!(p.on_l1_miss(2).is_empty());
    }
}
