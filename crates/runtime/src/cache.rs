//! The structural-hash reply cache: memoization for repeated traffic.
//!
//! Production command streams are heavily repetitive — many tenants
//! submit the same preludes and query shapes — yet every arrival used to
//! pay full parse, classify and execution costs again. [`CommandCache`]
//! memoizes whole replies of classified-pure commands, keyed on the
//! [`culi_core::structhash::StructKey`] of the parsed forms (never on
//! `NodeId`s, which differ on every re-parse), the exact source text and
//! the **env sync epoch**. Any epoch advance — every `define`/`set` bumps
//! it — invalidates the store: entries recorded against an older epoch
//! are dropped on the next probe, so a stale reply is never served (the
//! proptest suite interleaves defines between repeats to prove it).
//! Epochs and environments are tenant-private, so the cache is
//! **strictly per-tenant**: every [`CommandCache::tenant_view`] owns its
//! own store, and views of one fleet share nothing but the integer
//! hit/miss/evict counters behind [`CommandCache::stats`].
//!
//! # Why there is only one tier
//!
//! The cache used to hold two more tiers in front of the dispatch path,
//! both shared by every tenant behind one fleet-wide lock. Neither paid
//! for itself, so both were removed:
//!
//! * **Classifier verdicts**, keyed on a fingerprint folded over the env
//!   mutation log. Every `setq` changed the fingerprint, so each tenant
//!   write opened a fresh verdict scope: on the `serve-light` benchmark
//!   mix the tier hit 1.5% of probes, and every miss paid the fingerprint
//!   fold, a key copy, the lock and insert/evict churn to save a ~135 ns
//!   classify.
//! * **Pre-encoded dispatch templates** for staged `|||` jobs. They hit
//!   on every repeat, yet a hit cost more than the encode it replaced:
//!   computing the key walked the same tree the encoder walks, then the
//!   probe took the lock, compared canonical bytes and copied the words
//!   and texts out.
//!
//! Without them the cost of probing a cache that never hits (the bench
//! gate's `miss_overhead`, cached ÷ uncached on an all-distinct stream) fell
//! from 1.67–1.74× to 1.08–1.24× (five runs each on a 2-core x86-64
//! machine), with replies, meter charges and reply hits unchanged. [`CacheStats::verdict`] and [`CacheStats::template`]
//! are retired: they remain for callers that read them and always read
//! zero.
//!
//! # One batch policy for every backend
//!
//! Both batch schedulers' classify steps ([`crate::CpuRepl`] and
//! [`crate::GpuRepl`]) go through one crate-private policy, `BatchCache`,
//! which owns the per-batch store tickets. Per command it:
//!
//! 1. probes the store on `(structural key, source text, epoch)`;
//! 2. on a miss, classifies the command
//!    ([`culi_core::effects::stageable_parallel_section`]);
//! 3. issues a store ticket when the command is pure;
//! 4. stores the command's reply at the ticket's epoch, only if it is `Ok`.
//!
//! Tickets are dropped at the start of every batch. Without a cache the
//! policy just classifies. Parsing stays with the caller: the CPU session
//! parses metered (it executes the parsed forms), the GPU session parses
//! an unmetered look-ahead copy (the device re-parses on upload).
//!
//! # Charge-exactness guarantee
//!
//! Meter charges on every served-from-cache path are bit-identical to
//! the uncached run (the differential harness runs a cache-on arm):
//!
//! * Key hashing is charge-free by construction
//!   ([`culi_core::structhash`] reads the arena without metering).
//! * Hits require the *source text* to match byte-for-byte (not just the
//!   structure), so the cached counters — parse included — are the
//!   counters the uncached run would recompute; the reply is served as a
//!   clone with fresh wall-clock time only.
//!
//! A hash collision (two shapes, one hash bucket) is caught by the
//! injective canonical encoding: every probe compares
//! [`culi_core::structhash::StructKey::canon`] byte-for-byte before
//! trusting an entry. Tests force collisions by narrowing the hash with
//! [`CacheConfig::hash_mask`] and assert no wrong reply is ever served.
//!
//! # Bounded memory
//!
//! Each store evicts least-recently-used entries under a byte budget —
//! the worker pool's `RETAINED_MSG_BYTES` discipline applied to cache
//! retention. The fleet's counters surface in
//! [`crate::server::SessionServer::server_stats`].

use crate::reply::Reply;
use culi_core::structhash::StructKey;
use culi_core::{ErrorCode, Interp, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bucket keys are (masked) structural hashes — already high-quality
/// 64-bit mixes — so the bucket map only needs a cheap finalizer, not a
/// keyed byte hasher.
#[derive(Default)]
struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type Prehashed = std::hash::BuildHasherDefault<PrehashedKey>;

/// Tuning for one [`CommandCache`]. `Default` suits tests and moderate
/// fleets; the bench scales budgets with stream size.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Byte budget of each tenant view's private reply store.
    pub reply_byte_budget: usize,
    /// Mask applied to structural hashes before bucketing. `u64::MAX`
    /// for production; tests narrow it (down to `0`) to force bucket
    /// collisions and exercise the full-compare fallback.
    pub hash_mask: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            reply_byte_budget: crate::pool::WorkerPool::RETAINED_MSG_BYTES,
            hash_mask: u64::MAX,
        }
    }
}

/// Hit/miss/evict counters for one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Probes served from the tier.
    pub hits: u64,
    /// Probes that fell through to the uncached path.
    pub misses: u64,
    /// Entries evicted under the byte budget (epoch-invalidated reply
    /// entries count here too — they are dropped, not served).
    pub evictions: u64,
}

/// Cache counters ([`CommandCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Retired classification-verdict tier: always zero.
    pub verdict: TierStats,
    /// Retired staged-run template tier: always zero.
    pub template: TierStats,
    /// Whole-reply tier (aggregated across every tenant view).
    pub reply: TierStats,
}

/// One cached reply: the full key for the collision check, the exact
/// source text it was recorded for (the charge-exactness condition: same
/// bytes in, same counters out) and LRU bookkeeping.
#[derive(Debug)]
struct Entry {
    key: StructKey,
    text: String,
    reply: Reply,
    touched: u64,
    bytes: usize,
}

/// One tenant's bounded LRU reply store, bucketed on the masked
/// structural hash. Every entry was recorded at `epoch`.
#[derive(Debug)]
struct Store {
    buckets: HashMap<u64, Vec<Entry>, Prehashed>,
    epoch: u64,
    bytes: usize,
    budget: usize,
    mask: u64,
    clock: u64,
    /// Entries dropped since the owning view last drained this into the
    /// fleet counters.
    evictions: u64,
}

impl Store {
    fn new(config: &CacheConfig) -> Self {
        Self {
            buckets: HashMap::default(),
            epoch: 0,
            bytes: 0,
            budget: config.reply_byte_budget,
            mask: config.hash_mask,
            clock: 0,
            evictions: 0,
        }
    }

    /// Drops every entry once the env epoch differs from the one they
    /// were recorded at, counting them as evictions. Runs on every probe
    /// and insert, so a reply never survives an epoch advance; the
    /// (overwhelmingly common) no-advance case is one compare.
    fn retire_stale(&mut self, epoch: u64) {
        if epoch == self.epoch {
            return;
        }
        self.epoch = epoch;
        self.evictions += self.buckets.values().map(Vec::len).sum::<usize>() as u64;
        self.buckets.clear();
        self.bytes = 0;
    }

    /// The reply recorded for `key` at `epoch` — full canonical compare,
    /// never hash-trust — if its source text is exactly `text`. A
    /// structural match is touched even when the text differs.
    fn lookup(&mut self, key: &StructKey, text: &str, epoch: u64) -> Option<Reply> {
        self.retire_stale(epoch);
        self.clock += 1;
        let clock = self.clock;
        let bucket = self.buckets.get_mut(&key.masked(self.mask))?;
        let e = bucket.iter_mut().find(|e| e.key.tree_equal(key))?;
        e.touched = clock;
        (e.text == text).then(|| e.reply.clone())
    }

    /// Inserts (or replaces) the entry for `key` at `epoch`, then evicts
    /// LRU entries until the byte budget holds again.
    fn insert(&mut self, key: StructKey, text: &str, epoch: u64, reply: Reply) {
        self.retire_stale(epoch);
        self.clock += 1;
        let bytes = key.retained_bytes()
            + text.len()
            + reply.output.len()
            + std::mem::size_of::<Reply>()
            + 64;
        let bucket = self.buckets.entry(key.masked(self.mask)).or_default();
        if let Some(pos) = bucket.iter().position(|e| e.key.tree_equal(&key)) {
            self.bytes -= bucket[pos].bytes;
            bucket.remove(pos);
        }
        bucket.push(Entry {
            key,
            text: text.to_string(),
            reply,
            touched: self.clock,
            bytes,
        });
        self.bytes += bytes;
        if self.bytes > self.budget {
            self.evict_to(self.budget - self.budget / 4);
        }
    }

    /// Batched LRU eviction with hysteresis: one sort of (recency, size)
    /// pairs finds the touch-clock cutoff below which entries must go to
    /// reach `target` bytes, then a single retain pass drops them in
    /// place. Evicting a quarter of the budget per sweep amortizes the
    /// scan — cold all-distinct traffic pays O(log n) per insert instead
    /// of a full scan per evicted entry. The newest entry always
    /// survives, even oversized.
    fn evict_to(&mut self, target: usize) {
        let mut ages: Vec<(u64, usize)> = self
            .buckets
            .values()
            .flat_map(|b| b.iter().map(|e| (e.touched, e.bytes)))
            .collect();
        ages.sort_unstable_by_key(|&(touched, _)| touched);
        let mut excess = self.bytes.saturating_sub(target);
        let mut drop_count = 0usize;
        for &(_, bytes) in &ages {
            if excess == 0 {
                break;
            }
            excess = excess.saturating_sub(bytes);
            drop_count += 1;
        }
        drop_count = drop_count.min(ages.len().saturating_sub(1));
        if drop_count == 0 {
            return;
        }
        // Touch clocks are unique (every lookup/insert ticks the clock),
        // so the cutoff selects exactly the `drop_count` oldest entries.
        let cutoff = ages[drop_count - 1].0;
        let mut freed = 0usize;
        let mut dropped = 0u64;
        for bucket in self.buckets.values_mut() {
            bucket.retain(|e| {
                if e.touched <= cutoff {
                    freed += e.bytes;
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.buckets.retain(|_, b| !b.is_empty());
        self.bytes -= freed;
        self.evictions += dropped;
    }
}

/// A reply-tier store decision deferred from classify time (where the
/// key, source text and epoch are in hand) to reply time (where success
/// is known). [`BatchCache`] keeps these per batch slot and consumes them
/// only for `Ok` replies.
#[derive(Debug)]
struct ReplyTicket {
    key: StructKey,
    text: String,
    epoch: u64,
}

/// What [`BatchCache::classify`] decided for one batch command.
#[derive(Debug)]
pub(crate) enum Classified {
    /// Reply-tier hit: the recorded reply, bit-identical to what this
    /// command would produce. The caller refreshes wall-clock time and
    /// collects the probe's parse garbage.
    Hit(Box<Reply>),
    /// Not served from cache; `true` when the command may be staged.
    Stageable(bool),
}

/// The batch cache policy both repls run inside their scheduler's
/// classify step (see the module docs): reply-tier probe, classification
/// and `Ok`-only reply stores. It owns the current batch's store tickets;
/// the cache itself stays in the repl's config and is passed in, with
/// `None` meaning "just classify".
#[derive(Debug)]
pub(crate) struct BatchCache {
    /// Store tickets of this batch's classified-pure cache misses, keyed
    /// by batch slot.
    tickets: HashMap<usize, ReplyTicket>,
}

impl BatchCache {
    pub(crate) fn new() -> Self {
        Self {
            tickets: HashMap::new(),
        }
    }

    /// Drops the previous batch's tickets: slot numbers are only
    /// meaningful within one batch.
    pub(crate) fn begin_batch(&mut self) {
        self.tickets.clear();
    }

    /// Classifies the parsed `forms` of batch command `slot` (source
    /// text `input`): stageable when it is a single `|||` form with pure
    /// operands. Charge-free. With a cache, a reply-tier hit short-cuts
    /// classification, and a pure miss earns a store ticket for
    /// [`BatchCache::store`].
    ///
    /// The epoch read here is exactly the environment state the command
    /// executes against: the scheduler runs every earlier barrier before
    /// classifying the next command, and every in-flight staged command
    /// is pure.
    pub(crate) fn classify(
        &mut self,
        cache: Option<&CommandCache>,
        interp: &Interp,
        forms: &[NodeId],
        input: &str,
        slot: usize,
    ) -> Classified {
        let global = interp.global;
        let stageable = || {
            forms.len() == 1
                && culi_core::effects::stageable_parallel_section(interp, global, forms[0])
        };
        let Some(cache) = cache else {
            return Classified::Stageable(stageable());
        };
        let key = StructKey::of_forms(interp, forms);
        let epoch = interp.envs.sync_epoch();
        if let Some(reply) = cache.reply_lookup(&key, input, epoch) {
            return Classified::Hit(Box::new(reply));
        }
        let stageable = stageable();
        // Purity is what makes replay sound: the reply then depends only
        // on the tree and the (epoch-stamped) environment.
        let pure = stageable
            || forms
                .iter()
                .all(|&f| culi_core::effects::expr_is_pure(interp, global, f));
        if pure {
            self.tickets.insert(
                slot,
                ReplyTicket {
                    key,
                    text: input.to_string(),
                    epoch,
                },
            );
        }
        Classified::Stageable(stageable)
    }

    /// Consumes `slot`'s store ticket if its command produced the `Ok`
    /// reply the ticket anticipated. Error and degraded replies drop
    /// through (their tickets die with the batch), so a stored reply is
    /// always an `Ok` produced by the real execution path at the ticket's
    /// epoch.
    pub(crate) fn store(
        &mut self,
        cache: Option<&CommandCache>,
        interp: &Interp,
        slot: usize,
        reply: &Reply,
    ) {
        if !reply.ok || reply.code != ErrorCode::Ok {
            return;
        }
        let (Some(cache), Some(t)) = (cache, self.tickets.remove(&slot)) else {
            return;
        };
        // Pure commands cannot move the epoch, and nothing impure can have
        // run between classify and reply (barriers drain first).
        debug_assert_eq!(interp.envs.sync_epoch(), t.epoch);
        cache.reply_insert(t.key, &t.text, t.epoch, reply.clone());
    }
}

/// Handle to one tenant's reply cache. Cloning shares the store; a
/// [`CommandCache::tenant_view`] gets a fresh private store and shares
/// only the fleet's counters (see the module docs for why). An
/// `Option<CommandCache>` of `None` in a repl config disables caching
/// entirely — the uncached paths are untouched.
#[derive(Debug, Clone)]
pub struct CommandCache {
    store: Arc<Mutex<Store>>,
    /// Reply-tier counters aggregated across every view of the fleet.
    stats: Arc<Mutex<TierStats>>,
    config: CacheConfig,
}

impl CommandCache {
    /// A fresh cache with its own store and counters.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            store: Arc::new(Mutex::new(Store::new(&config))),
            stats: Arc::new(Mutex::new(TierStats::default())),
            config,
        }
    }

    /// A tenant's view: a private reply store (tenant epochs and
    /// environments are not comparable) feeding the fleet's counters.
    pub fn tenant_view(&self) -> Self {
        Self {
            store: Arc::new(Mutex::new(Store::new(&self.config))),
            stats: Arc::clone(&self.stats),
            config: self.config.clone(),
        }
    }

    /// Cached whole reply for `(key, text, epoch)`. Entries recorded
    /// against any other epoch are retired on sight — a reply never
    /// survives an env epoch advance. The returned clone carries the
    /// recorded counters (bit-identical by the source-text condition);
    /// the caller refreshes wall-clock time.
    pub fn reply_lookup(&self, key: &StructKey, text: &str, epoch: u64) -> Option<Reply> {
        let mut store = self.store.lock().expect("cache lock");
        let hit = store.lookup(key, text, epoch);
        let evictions = std::mem::take(&mut store.evictions);
        drop(store);
        let mut stats = self.stats.lock().expect("cache lock");
        stats.evictions += evictions;
        if hit.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        hit
    }

    /// Records a classified-pure command's reply against `epoch`.
    pub fn reply_insert(&self, key: StructKey, text: &str, epoch: u64, reply: Reply) {
        let mut store = self.store.lock().expect("cache lock");
        store.insert(key, text, epoch, reply);
        let evictions = std::mem::take(&mut store.evictions);
        drop(store);
        self.stats.lock().expect("cache lock").evictions += evictions;
    }

    /// Point-in-time counters, aggregated across every view of the fleet.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            reply: *self.stats.lock().expect("cache lock"),
            ..CacheStats::default()
        }
    }

    /// Bytes this view's reply store retains right now (other views'
    /// stores are theirs to report).
    pub fn retained_bytes(&self) -> usize {
        self.store.lock().expect("cache lock").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_core::{Interp, InterpConfig};

    fn key_of(src: &str) -> StructKey {
        let mut interp = Interp::new(InterpConfig::default());
        let forms = culi_core::parser::parse(&mut interp, src.as_bytes()).unwrap();
        StructKey::of_forms(&interp, &forms)
    }

    fn reply(text: &str) -> Reply {
        Reply {
            output: text.to_string(),
            ok: true,
            ..Default::default()
        }
    }

    #[test]
    fn reply_tier_hits_on_exact_text_and_epoch() {
        let cache = CommandCache::new(CacheConfig::default());
        let key = key_of("(+ 1 2)");
        assert!(cache.reply_lookup(&key, "(+ 1 2)", 5).is_none());
        cache.reply_insert(key.clone(), "(+ 1 2)", 5, reply("3"));
        let hit = cache.reply_lookup(&key, "(+ 1 2)", 5).expect("hit");
        assert_eq!(hit.output, "3");
        // Same structure, different source bytes: miss (charge-exactness
        // would otherwise break on whitespace-different parses).
        assert!(cache.reply_lookup(&key, "(+ 1  2)", 5).is_none());
    }

    #[test]
    fn reply_entries_never_survive_an_epoch_advance() {
        let cache = CommandCache::new(CacheConfig::default());
        let key = key_of("(+ 1 2)");
        cache.reply_insert(key.clone(), "(+ 1 2)", 5, reply("3"));
        // The advance itself retires the entry...
        assert!(cache.reply_lookup(&key, "(+ 1 2)", 6).is_none());
        // ...so even going back to the old epoch number cannot revive it.
        assert!(cache.reply_lookup(&key, "(+ 1 2)", 5).is_none());
        let stats = cache.stats();
        assert!(stats.reply.evictions >= 1);
        assert_eq!(stats.reply.hits, 0);
    }

    #[test]
    fn forced_hash_collision_falls_back_to_full_compare() {
        // mask 0: every key lands in one bucket.
        let cache = CommandCache::new(CacheConfig {
            hash_mask: 0,
            ..Default::default()
        });
        let a = key_of("(+ 1 2)");
        let b = key_of("(* 9 9)");
        assert_eq!(a.masked(0), b.masked(0), "collision must be forced");
        cache.reply_insert(a.clone(), "(+ 1 2)", 1, reply("3"));
        cache.reply_insert(b.clone(), "(* 9 9)", 1, reply("81"));
        // Both live in the same bucket; each probe still finds only its
        // own entry via the canonical compare.
        assert_eq!(cache.reply_lookup(&a, "(+ 1 2)", 1).unwrap().output, "3");
        assert_eq!(cache.reply_lookup(&b, "(* 9 9)", 1).unwrap().output, "81");
    }

    #[test]
    fn tenant_views_keep_private_stores_and_share_counters() {
        let fleet = CommandCache::new(CacheConfig::default());
        let view_a = fleet.tenant_view();
        let view_b = fleet.tenant_view();
        let key = key_of("(||| 2 + (1 2) (3 4))");
        view_a.reply_insert(key.clone(), "x", 1, reply("r"));
        // Same key, text and epoch number, other tenant: never shared.
        assert!(view_b.reply_lookup(&key, "x", 1).is_none());
        assert!(fleet.reply_lookup(&key, "x", 1).is_none());
        assert_eq!(view_a.reply_lookup(&key, "x", 1).unwrap().output, "r");
        assert_eq!(view_b.retained_bytes(), 0);
        // B's epoch advance retires nothing of A's.
        assert!(view_b.reply_lookup(&key, "x", 2).is_none());
        assert!(view_a.reply_lookup(&key, "x", 1).is_some());
        // Every view reports the fleet-wide totals.
        let totals = TierStats {
            hits: 2,
            misses: 3,
            evictions: 0,
        };
        for view in [&fleet, &view_a, &view_b] {
            assert_eq!(view.stats().reply, totals);
            assert_eq!(view.stats().verdict, TierStats::default());
            assert_eq!(view.stats().template, TierStats::default());
        }
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let cache = CommandCache::new(CacheConfig {
            reply_byte_budget: 600,
            ..Default::default()
        });
        let keys: Vec<StructKey> = (0..8).map(|k| key_of(&format!("(+ {k} {k})"))).collect();
        for (k, key) in keys.iter().enumerate() {
            cache.reply_insert(key.clone(), &format!("(+ {k} {k})"), 1, reply("x"));
        }
        let stats = cache.stats();
        assert!(stats.reply.evictions >= 1, "budget must have evicted");
        assert!(cache.retained_bytes() <= 600, "budget held");
        // The most recent key survived; the oldest was evicted.
        assert!(cache.reply_lookup(&keys[7], "(+ 7 7)", 1).is_some());
        assert!(cache.reply_lookup(&keys[0], "(+ 0 0)", 1).is_none());
    }
}
