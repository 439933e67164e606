//! The concurrent simulation cache.
//!
//! Keys are `(quantized design point, sample block index)`. Quantization
//! drops the 12 least-significant mantissa bits of each coordinate (relative
//! error ≈ 2.3 · 10⁻¹³), so designs that differ only by floating-point noise
//! share one sample stream while genuinely different designs collide with
//! negligible probability (64-bit FNV-style hash).
//!
//! The cache is sharded: each shard is a `Mutex<HashMap>` from key to an
//! entry holding an `Arc<Mutex<Block>>`, so workers contend only when
//! touching the *same* block of the *same* design — which the engine's task
//! deduplication already prevents within one batch.
//!
//! # Lifecycle and memory
//!
//! Historically the cache's lifecycle was one optimization run, ended by
//! `EvalEngine::reset()`. The campaign layer (`moheco-bench`) now keeps one
//! engine alive across a whole seed × algorithm grid, so the cache carries
//! two additional responsibilities:
//!
//! * **Memory accounting** — [`SimCache::bytes`] estimates the heap
//!   footprint of every retained block, of the backing shard tables *and* of
//!   the eviction queues, so a long-lived engine can be observed (and
//!   bounded) instead of trusted. [`SimCache::clear`] releases the backing
//!   capacity too (`shrink_to_fit`), so a per-run reset returns memory to
//!   near baseline rather than pinning the peak forever.
//! * **Bounded retention** — [`SimCache::enforce_limit`] implements a coarse
//!   second-chance FIFO eviction: blocks are considered in creation order
//!   (batch-granular, key-tiebroken, so the sweep is deterministic and
//!   independent of worker scheduling), and a block referenced since the
//!   previous sweep gets one reprieve before it is dropped. Eviction only
//!   ever costs *re-simulation*: a block's points are a pure function of
//!   `(seed, design, block index)`, so a re-created block is bit-identical
//!   and correctness is never at stake.
//!
//! # The eviction queue
//!
//! The creation order is kept, not recomputed: every live block has one
//! `(creation batch, key)` stamp in a queue sorted by that pair. A block
//! created since the last sweep is first pushed to its shard's `fresh`
//! list, under the shard lock the insertion holds anyway, so parallel
//! workers share no lock beyond the shards. They insert in any order, so
//! the next sweep gathers the shards' lists, sorts them and appends them.
//! (A cache that is never swept, as in an unbounded engine, keeps one
//! 24-byte stamp per live block there, counted by [`SimCache::bytes`].)
//! Batch stamps only grow, so the appended run already follows the queue's
//! tail and the queue stays sorted, exactly the order a full snapshot
//! sorted by `(created, key)` would give. (A stamp older than the tail,
//! which only a caller replaying old batch numbers can produce, re-sorts the
//! queue once.) The sweep then walks from the front: an unreferenced block
//! is evicted, a referenced one has its bit cleared and is set aside, and
//! the walk stops as soon as the excess is gone. If the excess outlives the
//! walk, the set-aside blocks are evicted in order; the survivors return to
//! the front in their original order. That is the victim set and order of
//! the full snapshot-and-sort sweep, at a cost of the entries visited
//! (evicted plus reprieved) and one lock of each shard, rather than the
//! cache size.
//! The nominal map keeps the same kind of queue, trimmed from the front.

use moheco_sampling::splitmix64;
use std::collections::{HashMap, VecDeque};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independent shard locks.
const SHARDS: usize = 16;

/// Approximate per-entry bookkeeping overhead of a hash-map slot (control
/// bytes + padding), used by the [`SimCache::bytes`] estimate.
const MAP_SLOT_OVERHEAD: usize = 16;

/// Cache key of one Monte-Carlo block: `(design key, block index)`.
type BlockKey = (u64, u64);

/// One cached block plus its second-chance bit.
struct CacheEntry {
    block: Arc<Mutex<Block>>,
    /// Whether the entry was referenced since the last eviction sweep
    /// (second-chance bit).
    referenced: bool,
}

/// One shard: the entries whose keys hash to it, plus the stamps of the
/// blocks it created since the last sweep. The stamps are pushed under the
/// shard lock the insertion already holds, so creating a block never takes
/// a cache-wide lock.
#[derive(Default)]
struct ShardState {
    map: HashMap<BlockKey, CacheEntry>,
    fresh: Vec<(u64, BlockKey)>,
}

type Shard = Mutex<ShardState>;

/// The live keys of one map in `(creation batch, key)` order.
///
/// `queue` is sorted; `fresh` holds the keys created since the last
/// [`Self::settle`], in whatever order they arrived.
#[derive(Default)]
struct EvictionOrder<K> {
    queue: VecDeque<(u64, K)>,
    fresh: Vec<(u64, K)>,
}

impl<K: Copy + Ord> EvictionOrder<K> {
    /// Records a key created in batch `batch`.
    fn push(&mut self, batch: u64, key: K) {
        self.fresh.push((batch, key));
    }

    /// Moves the fresh keys into the queue, keeping it sorted.
    fn settle(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        self.fresh.sort_unstable();
        let in_order = self.queue.back().is_none_or(|tail| *tail <= self.fresh[0]);
        self.queue.extend(self.fresh.drain(..));
        if !in_order {
            self.queue.make_contiguous().sort_unstable();
        }
    }

    /// Forgets `key` wherever it is stamped (a linear scan).
    fn remove(&mut self, key: K) {
        self.queue.retain(|&(_, k)| k != key);
        self.fresh.retain(|&(_, k)| k != key);
    }

    /// Backing capacity of both lists, in bytes.
    fn bytes(&self) -> usize {
        (self.queue.capacity() + self.fresh.capacity()) * size_of::<(u64, K)>()
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.queue.shrink_to_fit();
        self.fresh.clear();
        self.fresh.shrink_to_fit();
    }
}

/// One block of a design's sample stream.
#[derive(Debug)]
pub struct Block {
    /// The unit-hypercube points of the block, generated eagerly from the
    /// block's RNG stream (cheap — no circuit simulation involved).
    pub points: Vec<Vec<f64>>,
    /// Per-point likelihood weights of the importance-sampling estimator;
    /// empty means every weight is exactly 1 (all other estimators).
    pub weights: Vec<f64>,
    /// Lazily simulated outcomes, one per point. `None` = not yet simulated.
    /// Stored values are *yield contributions* (`weighted_outcome(w, J)`),
    /// which equal the raw pass/fail indicator whenever the weight is 1.
    pub outcomes: Vec<Option<f64>>,
}

impl Block {
    /// Creates a block from its generated points, with no outcomes yet and
    /// unit weights.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        Self::with_weights(points, Vec::new())
    }

    /// Creates a block from its generated points and likelihood weights
    /// (empty = all weights are 1).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is non-empty and its length differs from the
    /// point count.
    pub fn with_weights(points: Vec<Vec<f64>>, weights: Vec<f64>) -> Self {
        assert!(
            weights.is_empty() || weights.len() == points.len(),
            "weight/point count mismatch"
        );
        let n = points.len();
        Self {
            points,
            weights,
            outcomes: vec![None; n],
        }
    }

    /// Estimated heap footprint of the block's contents in bytes.
    pub fn bytes(&self) -> usize {
        let inner: usize = self
            .points
            .iter()
            .map(|p| p.capacity() * size_of::<f64>())
            .sum();
        self.points.capacity() * size_of::<Vec<f64>>()
            + inner
            + self.weights.capacity() * size_of::<f64>()
            + self.outcomes.capacity() * size_of::<Option<f64>>()
    }
}

/// The nominal evaluations and their trim order, under one lock.
#[derive(Default)]
struct NominalCache {
    map: HashMap<u64, Arc<Vec<f64>>>,
    order: EvictionOrder<u64>,
}

/// Concurrent cache of simulation blocks and nominal evaluations.
pub struct SimCache {
    mc: Vec<Shard>,
    /// Eviction order of the blocks; each sweep first gathers the shards'
    /// fresh stamps into it. Lock order: `order` before a shard.
    order: Mutex<EvictionOrder<BlockKey>>,
    /// Number of live blocks across all shards. `Relaxed` suffices: it
    /// publishes no other data, and sweeps run between batches, after the
    /// pool's thread joins have ordered every worker's insertions.
    blocks: AtomicUsize,
    nominal: Mutex<NominalCache>,
}

impl std::fmt::Debug for SimCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCache")
            .field("blocks", &self.blocks())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            mc: (0..SHARDS).map(|_| Mutex::default()).collect(),
            order: Mutex::default(),
            blocks: AtomicUsize::new(0),
            nominal: Mutex::default(),
        }
    }

    fn shard(&self, key: BlockKey) -> &Shard {
        let mixed = splitmix64(key.0 ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        &self.mc[(mixed % SHARDS as u64) as usize]
    }

    /// Returns the block for `(design key, block index)`, creating it with
    /// `make` if absent. `batch` is the engine's batch sequence number,
    /// recorded as the entry's creation stamp for FIFO eviction; stamps are
    /// expected not to decrease from one sweep to the next.
    ///
    /// `make` runs *outside* the shard lock (double-checked insertion), so
    /// generating one block's points never stalls workers whose different
    /// blocks hash to the same shard. If two callers race to create the same
    /// block, both generate identical points (a pure function of the seed)
    /// and the first insertion wins — the engine's per-batch task
    /// deduplication makes that race impossible within a batch anyway.
    pub fn block<F: FnOnce() -> Block>(
        &self,
        key: u64,
        block: u64,
        batch: u64,
        make: F,
    ) -> Arc<Mutex<Block>> {
        let key = (key, block);
        if let Some(existing) = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .map
            .get_mut(&key)
        {
            existing.referenced = true;
            return existing.block.clone();
        }
        let made = Arc::new(Mutex::new(make()));
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if let Some(raced) = shard.map.get(&key) {
            return raced.block.clone();
        }
        shard.map.insert(
            key,
            CacheEntry {
                block: made.clone(),
                referenced: true,
            },
        );
        shard.fresh.push((batch, key));
        self.blocks.fetch_add(1, Ordering::Relaxed);
        made
    }

    /// Looks up the cached nominal evaluation of a design.
    pub fn nominal(&self, key: u64) -> Option<Arc<Vec<f64>>> {
        self.nominal
            .lock()
            .expect("nominal cache poisoned")
            .map
            .get(&key)
            .cloned()
    }

    /// Stores the nominal evaluation of a design; `batch` is the engine's
    /// batch sequence number, recorded for FIFO trimming. Storing a design
    /// again replaces its evaluation and restamps it with `batch`.
    pub fn store_nominal(&self, key: u64, margins: Arc<Vec<f64>>, batch: u64) {
        let mut nominal = self.nominal.lock().expect("nominal cache poisoned");
        if nominal.map.insert(key, margins).is_some() {
            nominal.order.remove(key);
        }
        nominal.order.push(batch, key);
    }

    /// Number of cached nominal evaluations.
    pub fn nominals(&self) -> usize {
        self.nominal
            .lock()
            .expect("nominal cache poisoned")
            .map
            .len()
    }

    /// Number of cached blocks across all shards.
    pub fn blocks(&self) -> usize {
        self.blocks.load(Ordering::Relaxed)
    }

    /// Estimated heap footprint of the cache in bytes: block contents plus
    /// the backing capacity of the shard tables, the nominal map and both
    /// eviction queues, so a cleared-but-not-shrunk cache is *visible*
    /// rather than hidden.
    pub fn bytes(&self) -> usize {
        let entry_slot = size_of::<BlockKey>() + size_of::<CacheEntry>() + MAP_SLOT_OVERHEAD;
        let mut total = self.order.lock().expect("cache order poisoned").bytes();
        for shard in &self.mc {
            let guard = shard.lock().expect("cache shard poisoned");
            total += guard.map.capacity() * entry_slot
                + guard.fresh.capacity() * size_of::<(u64, BlockKey)>();
            for entry in guard.map.values() {
                total +=
                    size_of::<Mutex<Block>>() + entry.block.lock().expect("block poisoned").bytes();
            }
        }
        let nominal = self.nominal.lock().expect("nominal cache poisoned");
        let nominal_slot = size_of::<u64>() + size_of::<Arc<Vec<f64>>>() + MAP_SLOT_OVERHEAD;
        total += nominal.map.capacity() * nominal_slot + nominal.order.bytes();
        for margins in nominal.map.values() {
            total += size_of::<Vec<f64>>() + margins.capacity() * size_of::<f64>();
        }
        total
    }

    /// Trims the nominal-evaluation map to at most `max` entries (no-op
    /// when `max == 0`), dropping the oldest first — `(creation batch,
    /// key)` order, deterministic like the block sweep. A trimmed entry
    /// only costs one nominal re-evaluation on its next request. Returns
    /// the number of entries dropped.
    pub fn enforce_nominal_limit(&self, max: usize) -> u64 {
        if max == 0 {
            return 0;
        }
        let mut nominal = self.nominal.lock().expect("nominal cache poisoned");
        let NominalCache { map, order } = &mut *nominal;
        order.settle();
        let excess = map.len().saturating_sub(max);
        for (_, key) in order.queue.drain(..excess) {
            map.remove(&key);
        }
        excess as u64
    }

    /// Evicts blocks until at most `max` remain (no-op when `max == 0`,
    /// which means unbounded). Returns the number of blocks evicted.
    ///
    /// The sweep is a coarse second-chance FIFO: candidates are visited in
    /// `(creation batch, key)` order — deterministic regardless of worker
    /// scheduling, because the *set* of blocks created and touched per batch
    /// is a pure function of the request history — and an entry referenced
    /// since the previous sweep has its reference bit cleared and survives;
    /// if clearing every bit still leaves the cache over budget, the
    /// reprieved entries are evicted in the same order. Evicting a block
    /// only discards memo state: a later request re-creates it bit-for-bit
    /// and re-simulates its outcomes, so results are unchanged. The cost is
    /// the number of entries visited, not the cache size (see the module
    /// docs).
    ///
    /// Callers must invoke this between batches (the engine does, after
    /// assembly), never while tasks still expect their blocks to be present.
    pub fn enforce_limit(&self, max: usize) -> u64 {
        self.sweep(max).0
    }

    /// [`Self::enforce_limit`], returning the evicted count and the number
    /// of queue entries the walk visited (evicted plus reprieved).
    fn sweep(&self, max: usize) -> (u64, usize) {
        if max == 0 {
            return (0, 0);
        }
        let mut order = self.order.lock().expect("cache order poisoned");
        for shard in &self.mc {
            let mut guard = shard.lock().expect("cache shard poisoned");
            order.fresh.append(&mut guard.fresh);
        }
        order.settle();
        let mut excess = self.blocks().saturating_sub(max);
        let mut evicted = 0;
        let mut reprieved: Vec<(u64, BlockKey)> = Vec::new();
        while excess > 0 {
            let Some(stamp) = order.queue.pop_front() else {
                break;
            };
            let mut shard = self.shard(stamp.1).lock().expect("cache shard poisoned");
            let entry = shard.map.get_mut(&stamp.1).expect("queued block is cached");
            if entry.referenced {
                entry.referenced = false;
                reprieved.push(stamp);
            } else {
                shard.map.remove(&stamp.1);
                excess -= 1;
                evicted += 1;
            }
        }
        let visited = evicted + reprieved.len();
        // Still over budget: the reprieve is exhausted, evict in FIFO order.
        let exhausted = excess.min(reprieved.len());
        for &(_, key) in &reprieved[..exhausted] {
            self.shard(key)
                .lock()
                .expect("cache shard poisoned")
                .map
                .remove(&key);
        }
        evicted += exhausted;
        // The survivors keep their place at the front of the queue.
        for &stamp in reprieved[exhausted..].iter().rev() {
            order.queue.push_front(stamp);
        }
        self.blocks.fetch_sub(evicted, Ordering::Relaxed);
        (evicted as u64, visited)
    }

    /// Drops every cached block and nominal evaluation *and releases the
    /// backing capacity* of the shard tables and eviction queues, so a
    /// long-lived engine's per-run reset returns memory to near baseline
    /// instead of pinning the peak table capacity forever.
    pub fn clear(&self) {
        let mut order = self.order.lock().expect("cache order poisoned");
        for shard in &self.mc {
            let mut guard = shard.lock().expect("cache shard poisoned");
            guard.map.clear();
            guard.map.shrink_to_fit();
            guard.fresh.clear();
            guard.fresh.shrink_to_fit();
        }
        order.clear();
        self.blocks.store(0, Ordering::Relaxed);
        let mut nominal = self.nominal.lock().expect("nominal cache poisoned");
        nominal.map.clear();
        nominal.map.shrink_to_fit();
        nominal.order.clear();
    }
}

/// Quantizes one coordinate: normalises `-0.0` and `NaN`, then drops the 12
/// least-significant mantissa bits.
fn quantize_bits(v: f64) -> u64 {
    if v.is_nan() {
        return 0x7FF8_0000_0000_0001;
    }
    let v = if v == 0.0 { 0.0 } else { v };
    v.to_bits() & !0xFFF
}

/// Hashes a design point into the cache key of its sample stream.
pub fn design_key(x: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &v in x {
        h = splitmix64(h ^ quantize_bits(v));
    }
    // Guard the length so a prefix design cannot alias its extension.
    splitmix64(h ^ x.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_key_is_stable_under_fp_noise() {
        let a = vec![10.0, 0.5, 130.0];
        // A relative perturbation far below the quantization step.
        let b = vec![10.0 * (1.0 + 1e-15), 0.5, 130.0];
        assert_eq!(design_key(&a), design_key(&b));
    }

    #[test]
    fn design_key_separates_distinct_designs() {
        let a = vec![10.0, 0.5, 130.0];
        let b = vec![10.0, 0.5, 131.0];
        let c = vec![10.0, 0.5];
        assert_ne!(design_key(&a), design_key(&b));
        assert_ne!(design_key(&a), design_key(&c));
        assert_ne!(design_key(&[0.0]), design_key(&[1.0]));
    }

    #[test]
    fn negative_zero_and_nan_are_normalised() {
        assert_eq!(design_key(&[0.0]), design_key(&[-0.0]));
        assert_eq!(design_key(&[f64::NAN]), design_key(&[f64::NAN]));
    }

    #[test]
    fn block_roundtrip_and_clear() {
        let cache = SimCache::new();
        let key = design_key(&[1.0, 2.0]);
        let b = cache.block(key, 0, 0, || Block::new(vec![vec![0.5, 0.5]; 4]));
        {
            let mut guard = b.lock().unwrap();
            assert_eq!(guard.outcomes.len(), 4);
            guard.outcomes[0] = Some(1.0);
        }
        // Second lookup returns the same block (the stored outcome survives).
        let b2 = cache.block(key, 0, 1, || panic!("must not rebuild"));
        assert_eq!(b2.lock().unwrap().outcomes[0], Some(1.0));
        assert_eq!(cache.blocks(), 1);
        cache.clear();
        assert_eq!(cache.blocks(), 0);
    }

    #[test]
    fn nominal_roundtrip() {
        let cache = SimCache::new();
        let key = design_key(&[3.0]);
        assert!(cache.nominal(key).is_none());
        cache.store_nominal(key, Arc::new(vec![0.1, 0.2]), 0);
        assert_eq!(*cache.nominal(key).unwrap(), vec![0.1, 0.2]);
        assert_eq!(cache.nominals(), 1);
    }

    #[test]
    fn nominal_limit_trims_oldest_first() {
        let cache = SimCache::new();
        for i in 0..5u64 {
            cache.store_nominal(design_key(&[i as f64]), Arc::new(vec![i as f64]), i);
        }
        assert_eq!(cache.enforce_nominal_limit(0), 0, "0 means unbounded");
        assert_eq!(cache.enforce_nominal_limit(3), 2);
        assert_eq!(cache.nominals(), 3);
        assert!(cache.nominal(design_key(&[0.0])).is_none(), "oldest went");
        assert!(cache.nominal(design_key(&[1.0])).is_none());
        assert!(cache.nominal(design_key(&[4.0])).is_some(), "newest stays");
    }

    #[test]
    fn bytes_track_contents_and_clear_releases_capacity() {
        let cache = SimCache::new();
        let baseline = cache.bytes();
        for i in 0..200u64 {
            let key = design_key(&[i as f64]);
            let _ = cache.block(key, 0, i, || Block::new(vec![vec![0.5; 8]; 16]));
        }
        let filled = cache.bytes();
        assert!(
            filled > baseline + 200 * 16 * 8 * 8,
            "bytes() must count block contents: {filled} vs baseline {baseline}"
        );
        cache.clear();
        // The regression this guards: clear() used to keep the shard tables'
        // backing capacity, so a campaign's per-run reset pinned peak memory.
        let cleared = cache.bytes();
        assert!(
            cleared <= baseline + SHARDS * MAP_SLOT_OVERHEAD,
            "clear() must release backing capacity: {cleared} vs baseline {baseline}"
        );
    }

    #[test]
    fn bytes_count_one_stamp_per_live_block() {
        let cache = SimCache::new();
        let stamp = size_of::<(u64, BlockKey)>();
        // Everything bytes() counts besides the stamps (the blocks are
        // empty, and there are no nominals).
        let tables = |cache: &SimCache| -> usize {
            let slot = size_of::<BlockKey>() + size_of::<CacheEntry>() + MAP_SLOT_OVERHEAD;
            cache
                .mc
                .iter()
                .map(|s| {
                    let shard = s.lock().unwrap();
                    shard.map.capacity() * slot + shard.map.len() * size_of::<Mutex<Block>>()
                })
                .sum()
        };
        for i in 0..500u64 {
            let _ = cache.block(i, 0, i, || Block::new(Vec::new()));
        }
        assert!(
            cache.bytes() >= tables(&cache) + 500 * stamp,
            "fresh stamps"
        );
        assert_eq!(cache.enforce_limit(400), 100);
        // The sweep emptied the fresh lists but kept their capacity.
        let spare: usize = cache
            .mc
            .iter()
            .map(|s| s.lock().unwrap().fresh.capacity())
            .sum();
        let queued = tables(&cache) + (spare + 400) * stamp;
        assert!(cache.bytes() >= queued, "queued stamps");
    }

    #[test]
    fn enforce_limit_is_fifo_with_second_chance() {
        let cache = SimCache::new();
        let keys: Vec<u64> = (0..6).map(|i| design_key(&[i as f64])).collect();
        for (i, &key) in keys.iter().enumerate() {
            let _ = cache.block(key, 0, i as u64, || Block::new(vec![vec![0.0]; 2]));
        }
        // All entries are freshly referenced: the sweep reprieves everyone
        // (clearing the bits), then falls back to FIFO — the two oldest go.
        assert_eq!(cache.enforce_limit(4), 2);
        assert_eq!(cache.blocks(), 4);
        let mut rebuilt = false;
        let _ = cache.block(keys[0], 0, 10, || {
            rebuilt = true;
            Block::new(vec![vec![0.0]; 2])
        });
        assert!(rebuilt, "oldest entry was evicted");
        let mut rebuilt2 = false;
        let _ = cache.block(keys[2], 0, 11, || {
            rebuilt2 = true;
            Block::new(vec![vec![0.0]; 2])
        });
        assert!(!rebuilt2, "younger entry survived");

        // Five blocks now; keys[2] (the FIFO-oldest) was just touched while
        // keys[3] was not. The next sweep reprieves keys[2] (second chance)
        // and evicts keys[3] instead.
        assert_eq!(cache.enforce_limit(4), 1);
        let mut rebuilt3 = false;
        let _ = cache.block(keys[3], 0, 12, || {
            rebuilt3 = true;
            Block::new(vec![vec![0.0]; 2])
        });
        assert!(rebuilt3, "unreferenced FIFO-oldest entry was evicted");
        let mut rebuilt4 = false;
        let _ = cache.block(keys[2], 0, 13, || {
            rebuilt4 = true;
            Block::new(vec![vec![0.0]; 2])
        });
        assert!(!rebuilt4, "referenced entry got its second chance");
    }

    #[test]
    fn enforce_limit_zero_means_unbounded() {
        let cache = SimCache::new();
        for i in 0..10u64 {
            let _ = cache.block(design_key(&[i as f64]), 0, i, || {
                Block::new(vec![vec![0.0]; 1])
            });
        }
        assert_eq!(cache.enforce_limit(0), 0);
        assert_eq!(cache.blocks(), 10);
    }

    #[test]
    fn sweep_visits_evicted_plus_reprieved_not_the_cache() {
        const N: u64 = 4096;
        let cache = SimCache::new();
        let add = |i: u64| {
            let _ = cache.block(i, 0, i, || Block::new(Vec::new()));
        };
        (0..=N).for_each(add);
        // Every block is freshly referenced, so this one sweep has to clear
        // every bit before the FIFO fallback evicts the oldest.
        assert_eq!(cache.sweep(N as usize), (1, N as usize + 1));

        // Excess 1 with an unreferenced head: one visit, whatever N is.
        add(N + 1);
        assert_eq!(cache.sweep(N as usize), (1, 1));

        // Three referenced blocks at the head are reprieved, the fourth goes.
        for i in 2..5 {
            add(i);
        }
        add(N + 2);
        assert_eq!(cache.sweep(N as usize), (1, 4));
        assert_eq!(cache.blocks(), N as usize);

        // The reprieved blocks kept their place: the oldest goes next.
        add(N + 3);
        assert_eq!(cache.sweep(N as usize), (1, 1));
        let mut rebuilt = false;
        let _ = cache.block(2, 0, N + 4, || {
            rebuilt = true;
            Block::new(Vec::new())
        });
        assert!(rebuilt, "the reprieved FIFO head was evicted last");

        // Within budget: the sweep visits nothing.
        assert_eq!(cache.sweep(2 * N as usize), (0, 0));
    }

    /// Differential test of the queue-based sweep against the snapshot-and-
    /// sort sweep it replaced, on seeded random cache histories.
    mod eviction_equivalence {
        use super::super::*;
        use std::collections::BTreeSet;

        /// The previous implementation's bookkeeping and sweeps, kept only
        /// as the reference model: every sweep snapshots all entries and
        /// sorts them by `(creation batch, key)`.
        #[derive(Default)]
        struct Reference {
            /// Key -> (creation batch, referenced bit).
            blocks: HashMap<BlockKey, (u64, bool)>,
            /// Key -> creation batch.
            nominal: HashMap<u64, u64>,
        }

        impl Reference {
            fn block(&mut self, key: BlockKey, batch: u64) {
                self.blocks
                    .entry(key)
                    .and_modify(|e| e.1 = true)
                    .or_insert((batch, true));
            }

            fn store_nominal(&mut self, key: u64, batch: u64) {
                self.nominal.insert(key, batch);
            }

            fn enforce_limit(&mut self, max: usize) -> u64 {
                if max == 0 || self.blocks.len() <= max {
                    return 0;
                }
                let mut excess = self.blocks.len() - max;
                let mut candidates: Vec<(u64, BlockKey, bool)> = self
                    .blocks
                    .iter()
                    .map(|(&key, &(created, referenced))| (created, key, referenced))
                    .collect();
                candidates.sort_unstable_by_key(|&(created, key, _)| (created, key));
                let mut evicted = 0;
                let mut reprieved = Vec::new();
                for &(_, key, referenced) in &candidates {
                    if excess == 0 {
                        break;
                    }
                    if referenced {
                        reprieved.push(key);
                    } else {
                        self.blocks.remove(&key);
                        excess -= 1;
                        evicted += 1;
                    }
                }
                for key in &reprieved {
                    self.blocks.get_mut(key).unwrap().1 = false;
                }
                for key in reprieved {
                    if excess == 0 {
                        break;
                    }
                    self.blocks.remove(&key);
                    excess -= 1;
                    evicted += 1;
                }
                evicted
            }

            fn enforce_nominal_limit(&mut self, max: usize) -> u64 {
                if max == 0 || self.nominal.len() <= max {
                    return 0;
                }
                let excess = self.nominal.len() - max;
                let mut order: Vec<(u64, u64)> =
                    self.nominal.iter().map(|(&k, &c)| (c, k)).collect();
                order.sort_unstable();
                for &(_, key) in order.iter().take(excess) {
                    self.nominal.remove(&key);
                }
                excess as u64
            }

            fn clear(&mut self) {
                self.blocks.clear();
                self.nominal.clear();
            }
        }

        /// A seeded splitmix64 counter stream.
        struct Rng(u64);

        impl Rng {
            fn below(&mut self, n: usize) -> usize {
                self.0 = self.0.wrapping_add(1);
                (splitmix64(self.0) % n as u64) as usize
            }

            fn shuffle<T>(&mut self, items: &mut [T]) {
                for i in (1..items.len()).rev() {
                    items.swap(i, self.below(i + 1));
                }
            }
        }

        fn live_blocks(cache: &SimCache) -> BTreeSet<BlockKey> {
            cache
                .mc
                .iter()
                .flat_map(|s| s.lock().unwrap().map.keys().copied().collect::<Vec<_>>())
                .collect()
        }

        fn live_nominals(cache: &SimCache) -> BTreeSet<u64> {
            cache.nominal.lock().unwrap().map.keys().copied().collect()
        }

        fn assert_same(cache: &SimCache, reference: &Reference, ctx: &str) {
            let blocks: BTreeSet<BlockKey> = reference.blocks.keys().copied().collect();
            assert_eq!(live_blocks(cache), blocks, "{ctx}: surviving blocks");
            assert_eq!(cache.blocks(), blocks.len(), "{ctx}: block count");
            let nominals: BTreeSet<u64> = reference.nominal.keys().copied().collect();
            assert_eq!(live_nominals(cache), nominals, "{ctx}: surviving nominals");
        }

        /// Inserts one batch's blocks in `keys` order — split over two
        /// threads when `threaded`, as parallel workers would — then touches
        /// them again in a reshuffled order, as request assembly does.
        fn insert_batch(cache: &SimCache, keys: &[BlockKey], batch: u64, threaded: bool) {
            let insert = |part: &[BlockKey]| {
                for &(key, block) in part {
                    let _ = cache.block(key, block, batch, || Block::new(vec![vec![0.0]; 1]));
                }
            };
            if threaded {
                let (a, b) = keys.split_at(keys.len() / 2);
                std::thread::scope(|s| {
                    s.spawn(|| insert(a));
                    s.spawn(|| insert(b));
                });
            } else {
                insert(keys);
            }
        }

        fn run_history(seed: u64) {
            const DESIGNS: usize = 12;
            const BLOCKS_PER_DESIGN: usize = 4;
            const NOMINAL_KEYS: usize = 20;
            let mut rng = Rng(splitmix64(seed));
            let bound = [0, 1, 3, 8, 16, 24][rng.below(6)];
            let threaded = seed.is_multiple_of(4);
            let design = |i: usize| splitmix64(i as u64 ^ 0xD5);
            let cache = SimCache::new();
            let mut reference = Reference::default();
            let mut batch = 0u64;
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step} bound {bound}");
                match rng.below(100) {
                    // A Monte-Carlo batch: distinct blocks, new or re-touched,
                    // then the engine's per-batch sweep.
                    0..=59 => {
                        batch += 1;
                        let mut keys: Vec<BlockKey> = (0..1 + rng.below(8))
                            .map(|_| {
                                let b = rng.below(BLOCKS_PER_DESIGN) as u64;
                                (design(rng.below(DESIGNS)), b)
                            })
                            .collect::<BTreeSet<_>>()
                            .into_iter()
                            .collect();
                        rng.shuffle(&mut keys);
                        insert_batch(&cache, &keys, batch, threaded);
                        rng.shuffle(&mut keys);
                        insert_batch(&cache, &keys, batch, false);
                        for &key in &keys {
                            reference.block(key, batch);
                        }
                        let got = cache.enforce_limit(bound);
                        assert_eq!(got, reference.enforce_limit(bound), "{ctx}: batch sweep");
                    }
                    // A nominal batch: missing designs only, in shuffled
                    // order, then the per-batch trim.
                    60..=74 => {
                        batch += 1;
                        let mut keys: Vec<u64> = (0..1 + rng.below(6))
                            .map(|_| design(rng.below(NOMINAL_KEYS)))
                            .filter(|k| !reference.nominal.contains_key(k))
                            .collect::<BTreeSet<_>>()
                            .into_iter()
                            .collect();
                        rng.shuffle(&mut keys);
                        for &key in &keys {
                            cache.store_nominal(key, Arc::new(vec![1.0]), batch);
                            reference.store_nominal(key, batch);
                        }
                        let got = cache.enforce_nominal_limit(bound);
                        let want = reference.enforce_nominal_limit(bound);
                        assert_eq!(got, want, "{ctx}: nominal trim");
                    }
                    // An external quota trim: unbounded, to zero-ish, below
                    // or above the current size.
                    75..=89 => {
                        let size = reference.blocks.len().max(reference.nominal.len());
                        let max = match rng.below(4) {
                            0 => 0,
                            1 => 1,
                            2 => rng.below(size + 1),
                            _ => size + rng.below(4),
                        };
                        let got = cache.enforce_limit(max);
                        assert_eq!(got, reference.enforce_limit(max), "{ctx}: trim {max}");
                        let got = cache.enforce_nominal_limit(max);
                        let want = reference.enforce_nominal_limit(max);
                        assert_eq!(got, want, "{ctx}: nominal trim {max}");
                    }
                    90..=93 => {
                        cache.clear();
                        reference.clear();
                    }
                    // Stamps up to two batches old: a re-stored nominal and
                    // a late block insert (the queue's re-sort path).
                    _ => {
                        let stamp = batch.saturating_sub(rng.below(3) as u64);
                        let key = design(rng.below(NOMINAL_KEYS));
                        cache.store_nominal(key, Arc::new(vec![2.0]), stamp);
                        reference.store_nominal(key, stamp);
                        let block = (design(rng.below(DESIGNS)), rng.below(4) as u64);
                        insert_batch(&cache, &[block], stamp, false);
                        reference.block(block, stamp);
                    }
                }
                assert_same(&cache, &reference, &ctx);
            }
        }

        #[test]
        fn eviction_equivalence_on_seeded_histories() {
            for seed in 0..200 {
                run_history(seed);
            }
        }
    }
}
