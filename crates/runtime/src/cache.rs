//! The structural-hash command cache: memoization for repeated traffic.
//!
//! Production command streams are heavily repetitive — many tenants
//! submit the same preludes, defuns and query shapes — yet every arrival
//! used to pay full classification and dispatch-encoding costs again.
//! [`CommandCache`] memoizes three tiers, keyed on the
//! [`culi_core::structhash::StructKey`] of the parsed trees (never on
//! `NodeId`s, which differ on every re-parse):
//!
//! 1. **Verdict tier** — the batch classifier's outcome (stageable or
//!    barrier, from [`culi_core::effects::stageable_parallel_section`])
//!    per command shape. The classifier resolves head symbols against
//!    the live global environment, so the key also carries a
//!    **classifier fingerprint**: a fold over the env
//!    sync-epoch log's records (symbol bytes + structural hash of the
//!    bound value). Two interpreters with the same mutation history —
//!    e.g. tenants that ran the same prelude — produce the same
//!    fingerprint, so verdict entries are shared across tenants; any
//!    redefinition changes the fingerprint and retires the old verdicts.
//! 2. **Template tier** — pre-encoded [`culi_core::postbox::TreeTemplate`]
//!    job payloads, spliced into the worker pool's dispatch buffers at
//!    `stage_run` time instead of re-walking the job trees
//!    ([`culi_core::postbox::FlatTree::push_template`] is byte-identical
//!    to a fresh encode). Job trees embed their resolved operands, so
//!    this tier keys on tree shape alone and is shared across tenants.
//! 3. **Reply tier** — whole replies for classified-pure commands, keyed
//!    on (structural hash, source text, **env sync epoch**). Any epoch
//!    advance — every `define`/`set` bumps it — invalidates the entry:
//!    lookups require an exact epoch match and drop entries recorded
//!    against an older epoch on sight, so a stale reply is never served
//!    (the proptest suite interleaves defines between repeats to prove
//!    it). Epochs and environments are tenant-private, so this tier is
//!    **strictly per-tenant**: [`CommandCache::tenant_view`] shares the
//!    verdict/template stores but gives each tenant its own reply store.
//!
//! # One batch policy for every backend
//!
//! Both batch schedulers' classify steps ([`crate::CpuRepl`] and
//! [`crate::GpuRepl`]) go through one crate-private policy, `BatchCache`,
//! which owns the classifier fingerprint and the per-batch reply-tier
//! store tickets. Per command it:
//!
//! 1. probes the reply tier on `(structural key, source text, epoch)`;
//! 2. on a miss, classifies through the fingerprint-scoped verdict tier;
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
//! * Verdict hits skip only the classifier walk, which was never metered.
//! * Template hits skip only the dispatch encode, which is deliberately
//!   unmetered (transfer is modeled at the simulated-device layer).
//! * Reply hits require the *source text* to match byte-for-byte (not
//!   just the structure), so the cached counters — parse included — are
//!   the counters the uncached run would recompute; the reply is served
//!   as a clone with fresh wall-clock time only.
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
//! retention. Hit/miss/evict counters per tier surface in
//! [`crate::server::SessionServer::server_stats`].

use crate::reply::Reply;
use culi_core::postbox::{FlatTree, TreeTemplate};
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
    /// Byte budget of the shared verdict + template stores.
    pub shared_byte_budget: usize,
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
            shared_byte_budget: 4 * crate::pool::WorkerPool::RETAINED_MSG_BYTES,
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

impl TierStats {
    fn add(&mut self, other: &TierStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Counters for all three tiers ([`CommandCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Classification-verdict tier.
    pub verdict: TierStats,
    /// Staged-run template tier.
    pub template: TierStats,
    /// Whole-reply tier (aggregated across every tenant view).
    pub reply: TierStats,
}

/// One stored entry: the full key for the collision check, extra key
/// dimensions (fingerprint or epoch), the value and LRU bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    key: StructKey,
    /// Verdict tier: classifier fingerprint. Reply tier: env sync epoch.
    /// Template tier: unused (0).
    extra: u64,
    value: V,
    touched: u64,
    bytes: usize,
}

/// One bounded LRU store bucketed on the masked structural hash.
#[derive(Debug)]
struct Store<V> {
    buckets: HashMap<u64, Vec<Entry<V>>, Prehashed>,
    bytes: usize,
    budget: usize,
    mask: u64,
    clock: u64,
    stats: TierStats,
    /// Epoch of the last [`Store::retire_stale`] sweep. The reply tier
    /// sweeps on every probe; this tag makes the no-advance case O(1).
    swept_epoch: u64,
}

impl<V> Store<V> {
    fn new(budget: usize, mask: u64) -> Self {
        Self {
            buckets: HashMap::default(),
            bytes: 0,
            budget,
            mask,
            clock: 0,
            stats: TierStats::default(),
            swept_epoch: 0,
        }
    }

    /// Finds the entry matching `(key, extra)` — full canonical compare,
    /// never hash-trust — touching it on hit. The miss is *not* counted
    /// here; callers count exactly one hit or miss per probe.
    fn lookup(&mut self, key: &StructKey, extra: u64) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        let bucket = self.buckets.get_mut(&key.masked(self.mask))?;
        let e = bucket
            .iter_mut()
            .find(|e| e.extra == extra && e.key.tree_equal(key))?;
        e.touched = clock;
        Some(&e.value)
    }

    /// Inserts (or replaces) the entry for `(key, extra)`, then evicts
    /// LRU entries until the byte budget holds again.
    fn insert(&mut self, key: StructKey, extra: u64, value: V, value_bytes: usize) {
        self.clock += 1;
        let bytes = key.retained_bytes() + value_bytes + 64;
        let bucket = self.buckets.entry(key.masked(self.mask)).or_default();
        if let Some(pos) = bucket
            .iter()
            .position(|e| e.extra == extra && e.key.tree_equal(&key))
        {
            self.bytes -= bucket[pos].bytes;
            bucket.remove(pos);
        }
        bucket.push(Entry {
            key,
            extra,
            value,
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
        self.stats.evictions += dropped;
    }

    /// Drops every entry whose `extra` (epoch) is not `current`,
    /// counting them as evictions. The reply tier calls this on every
    /// probe so stale entries never survive an epoch advance; the sweep
    /// tag makes the (overwhelmingly common) no-advance case free.
    fn retire_stale(&mut self, current: u64) {
        if current == self.swept_epoch {
            return;
        }
        self.swept_epoch = current;
        let mut dropped = 0u64;
        for bucket in self.buckets.values_mut() {
            bucket.retain(|e| {
                if e.extra == current {
                    true
                } else {
                    self.bytes -= e.bytes;
                    dropped += 1;
                    false
                }
            });
        }
        self.buckets.retain(|_, b| !b.is_empty());
        self.stats.evictions += dropped;
    }

    fn retained_bytes(&self) -> usize {
        self.bytes
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

/// Lazily folds the env sync log into the verdict tier's classifier
/// fingerprint: a FNV-1a fold over every logged mutation's kind, target
/// environment, symbol bytes and bound-value structural hash. Two
/// interpreters with the same post-boot mutation history fold to the
/// same fingerprint (so verdict entries shared through a
/// [`CommandCache::tenant_view`] hit across tenants); any divergence —
/// including the same symbol bound to a different value — changes it.
#[derive(Debug)]
struct FingerprintTracker {
    /// Sync epoch up to which the log has been folded.
    epoch: u64,
    /// Running fold over the records below `epoch`.
    hash: u64,
    /// Set when a folded record's value tree was already collected (its
    /// structure is unrecoverable): the fingerprint no longer describes
    /// the environment, so verdict caching is disabled for this session.
    poisoned: bool,
}

impl FingerprintTracker {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;

    fn new() -> Self {
        Self {
            epoch: 0,
            hash: Self::SEED,
            poisoned: false,
        }
    }

    fn fold(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The fingerprint for the interpreter's current environment state,
    /// folding any sync records logged since the last call. `None` once
    /// poisoned (callers fall back to uncached classification, which is
    /// always sound).
    fn fingerprint(&mut self, interp: &Interp) -> Option<u64> {
        if self.poisoned {
            return None;
        }
        for r in interp.envs.sync_records_since(self.epoch) {
            if !interp.arena.is_live(r.value) {
                self.poisoned = true;
                return None;
            }
            let mut h = Self::fold(
                self.hash,
                &[match r.kind {
                    culi_core::env::SyncKind::Define => 0xD0,
                    culi_core::env::SyncKind::Set => 0x5E,
                }],
            );
            h = Self::fold(h, &(r.env.index() as u32).to_le_bytes());
            let sym = interp.strings.get(r.sym);
            h = Self::fold(h, &(sym.len() as u32).to_le_bytes());
            h = Self::fold(h, sym);
            h = Self::fold(h, &StructKey::of(interp, r.value).hash.to_le_bytes());
            self.hash = h;
        }
        self.epoch = interp.envs.sync_epoch();
        Some(self.hash)
    }
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
/// classify step (see the module docs): reply-tier probe, verdict-tier
/// classification and `Ok`-only reply stores. It owns the session's
/// classifier fingerprint and the current batch's store tickets; the
/// cache itself stays in the repl's config and is passed in, with `None`
/// meaning "just classify".
#[derive(Debug)]
pub(crate) struct BatchCache {
    /// Incremental classifier-environment fingerprint (verdict-tier key
    /// dimension).
    fingerprint: FingerprintTracker,
    /// Store tickets of this batch's classified-pure cache misses, keyed
    /// by batch slot.
    tickets: HashMap<usize, ReplyTicket>,
}

impl BatchCache {
    pub(crate) fn new() -> Self {
        Self {
            fingerprint: FingerprintTracker::new(),
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
        let stageable_section =
            |form| culi_core::effects::stageable_parallel_section(interp, global, form);
        let Some(cache) = cache else {
            return Classified::Stageable(forms.len() == 1 && stageable_section(forms[0]));
        };
        let key = StructKey::of_forms(interp, forms);
        let epoch = interp.envs.sync_epoch();
        if let Some(reply) = cache.reply_lookup(&key, input, epoch) {
            return Classified::Hit(Box::new(reply));
        }
        let stageable = forms.len() == 1
            && match self.fingerprint.fingerprint(interp) {
                Some(fp) => {
                    // Slice the single-form key out of the command key
                    // instead of re-walking the tree.
                    let form_key = key
                        .single_form()
                        .unwrap_or_else(|| StructKey::of(interp, forms[0]));
                    match cache.verdict_lookup(&form_key, fp) {
                        Some(v) => v,
                        None => {
                            let v = stageable_section(forms[0]);
                            cache.verdict_insert(form_key, fp, v);
                            v
                        }
                    }
                }
                None => stageable_section(forms[0]),
            };
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

/// A cached reply plus the exact source text it was recorded for (the
/// charge-exactness condition: same bytes in, same counters out).
#[derive(Debug)]
struct ReplyEntry {
    text: String,
    reply: Reply,
}

/// The verdict/template stores shared by every tenant view.
#[derive(Debug)]
struct SharedTiers {
    verdict: Store<bool>,
    template: Store<TreeTemplate>,
}

/// Handle to the command cache. Cloning shares everything; a
/// [`CommandCache::tenant_view`] shares the verdict/template tiers but
/// holds its own private reply tier (see the module docs for why). An
/// `Option<CommandCache>` of `None` in a repl config disables caching
/// entirely — the uncached paths are untouched.
#[derive(Debug, Clone)]
pub struct CommandCache {
    shared: Arc<Mutex<SharedTiers>>,
    reply: Arc<Mutex<Store<ReplyEntry>>>,
    /// Reply-tier stats aggregated across every tenant view.
    reply_stats: Arc<Mutex<TierStats>>,
    config: CacheConfig,
}

impl CommandCache {
    /// A fresh cache with its own stores.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            shared: Arc::new(Mutex::new(SharedTiers {
                verdict: Store::new(config.shared_byte_budget / 2, config.hash_mask),
                template: Store::new(config.shared_byte_budget / 2, config.hash_mask),
            })),
            reply: Arc::new(Mutex::new(Store::new(
                config.reply_byte_budget,
                config.hash_mask,
            ))),
            reply_stats: Arc::new(Mutex::new(TierStats::default())),
            config,
        }
    }

    /// A tenant's view: verdict/template tiers shared with `self`, reply
    /// tier private (tenant epochs and environments are not comparable).
    pub fn tenant_view(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            reply: Arc::new(Mutex::new(Store::new(
                self.config.reply_byte_budget,
                self.config.hash_mask,
            ))),
            reply_stats: Arc::clone(&self.reply_stats),
            config: self.config.clone(),
        }
    }

    /// Cached classification verdict for `(key, fingerprint)`.
    pub fn verdict_lookup(&self, key: &StructKey, fingerprint: u64) -> Option<bool> {
        let mut shared = self.shared.lock().expect("cache lock");
        match shared.verdict.lookup(key, fingerprint).copied() {
            Some(v) => {
                shared.verdict.stats.hits += 1;
                Some(v)
            }
            None => {
                shared.verdict.stats.misses += 1;
                None
            }
        }
    }

    /// Records a classification verdict.
    pub fn verdict_insert(&self, key: StructKey, fingerprint: u64, stageable: bool) {
        let mut shared = self.shared.lock().expect("cache lock");
        shared.verdict.insert(key, fingerprint, stageable, 1);
    }

    /// Cached pre-encoded job template for `key` (cloned out; splicing
    /// happens under no lock).
    pub fn template_lookup(&self, key: &StructKey) -> Option<TreeTemplate> {
        let mut shared = self.shared.lock().expect("cache lock");
        match shared.template.lookup(key, 0).cloned() {
            Some(t) => {
                shared.template.stats.hits += 1;
                Some(t)
            }
            None => {
                shared.template.stats.misses += 1;
                None
            }
        }
    }

    /// Splices the cached job template for `key` directly into `into`
    /// under the store lock — the hot-path variant of
    /// [`CommandCache::template_lookup`], sparing the clone-out of the
    /// template's buffers. Returns `true` on hit.
    pub fn template_splice(&self, key: &StructKey, into: &mut FlatTree) -> bool {
        let mut shared = self.shared.lock().expect("cache lock");
        match shared.template.lookup(key, 0) {
            Some(t) => {
                into.push_template(t);
                shared.template.stats.hits += 1;
                true
            }
            None => {
                shared.template.stats.misses += 1;
                false
            }
        }
    }

    /// Records a job template.
    pub fn template_insert(&self, key: StructKey, template: TreeTemplate) {
        let bytes = template.retained_bytes();
        let mut shared = self.shared.lock().expect("cache lock");
        shared.template.insert(key, 0, template, bytes);
    }

    /// Cached whole reply for `(key, text, epoch)`. Entries recorded
    /// against any other epoch are retired on sight — a reply never
    /// survives an env epoch advance. The returned clone carries the
    /// recorded counters (bit-identical by the source-text condition);
    /// the caller refreshes wall-clock time.
    pub fn reply_lookup(&self, key: &StructKey, text: &str, epoch: u64) -> Option<Reply> {
        let mut store = self.reply.lock().expect("cache lock");
        store.retire_stale(epoch);
        let hit = store
            .lookup(key, epoch)
            .filter(|e| e.text == text)
            .map(|e| e.reply.clone());
        let stale_evictions = std::mem::take(&mut store.stats.evictions);
        drop(store);
        let mut stats = self.reply_stats.lock().expect("cache lock");
        stats.evictions += stale_evictions;
        match hit {
            Some(r) => {
                stats.hits += 1;
                Some(r)
            }
            None => {
                stats.misses += 1;
                None
            }
        }
    }

    /// Records a classified-pure command's reply against `epoch`.
    pub fn reply_insert(&self, key: StructKey, text: &str, epoch: u64, reply: Reply) {
        let bytes = text.len() + reply.output.len() + std::mem::size_of::<Reply>();
        let mut store = self.reply.lock().expect("cache lock");
        store.retire_stale(epoch);
        store.insert(
            key,
            epoch,
            ReplyEntry {
                text: text.to_string(),
                reply,
            },
            bytes,
        );
        let stale_evictions = std::mem::take(&mut store.stats.evictions);
        drop(store);
        self.reply_stats.lock().expect("cache lock").evictions += stale_evictions;
    }

    /// Point-in-time counters for all tiers. Verdict/template counters
    /// are the shared stores'; reply counters aggregate every view.
    pub fn stats(&self) -> CacheStats {
        let shared = self.shared.lock().expect("cache lock");
        let mut reply = *self.reply_stats.lock().expect("cache lock");
        reply.add(&TierStats::default());
        CacheStats {
            verdict: shared.verdict.stats,
            template: shared.template.stats,
            reply,
        }
    }

    /// Bytes retained right now: shared stores plus this view's reply
    /// store (other views' reply stores are theirs to report).
    pub fn retained_bytes(&self) -> usize {
        let shared = self.shared.lock().expect("cache lock");
        shared.verdict.retained_bytes()
            + shared.template.retained_bytes()
            + self.reply.lock().expect("cache lock").retained_bytes()
    }

    /// The configured hash mask (propagated to key probes by callers
    /// that precompute masked buckets; tests narrow it).
    pub fn hash_mask(&self) -> u64 {
        self.config.hash_mask
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
        cache.verdict_insert(a.clone(), 7, true);
        assert_eq!(cache.verdict_lookup(&a, 7), Some(true));
        assert_eq!(cache.verdict_lookup(&b, 7), None, "no false sharing");
    }

    #[test]
    fn verdict_tier_is_fingerprint_scoped_and_shared_across_views() {
        let cache = CommandCache::new(CacheConfig::default());
        let view_a = cache.tenant_view();
        let view_b = cache.tenant_view();
        let key = key_of("(||| 2 + (1 2) (3 4))");
        view_a.verdict_insert(key.clone(), 42, true);
        // Same fingerprint (same prelude history): shared across tenants.
        assert_eq!(view_b.verdict_lookup(&key, 42), Some(true));
        // Different fingerprint (diverged env): not shared.
        assert_eq!(view_b.verdict_lookup(&key, 43), None);
        // Reply tier is NOT shared between views.
        view_a.reply_insert(key.clone(), "x", 1, reply("r"));
        assert!(view_b.reply_lookup(&key, "x", 1).is_none());
        assert!(view_a.reply_lookup(&key, "x", 1).is_some());
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
