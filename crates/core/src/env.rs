//! Environments — the symbol-binding trees of paper Figs. 6 and 7.
//!
//! *"An environment contains a linked list of environment nodes and a link
//! to a parent environment. The only exception is the global environment
//! that has no link to other environments. Each environment node itself
//! contains a symbol for comparison and the node that the symbol points
//! to."*
//!
//! Lookup walks the local binding list, then the parent chain, up to the
//! global environment; the *first* match wins (late binding, locally
//! shadowing). `set` (the engine of `setq`) mutates the nearest existing
//! binding — the one sanctioned side effect, which the paper warns must be
//! used carefully under parallel evaluation.
//!
//! # Simulated cost vs. real data structure
//!
//! The C original resolves a symbol by `strcmp`ing its way down every
//! binding list — O(total bindings) per lookup, which is brutal in the
//! global environment (it holds every builtin plus everything `defun`/
//! `setq` ever defined). The cost model must keep charging exactly that
//! faithful walk (`env_probes` + `symbol_cmp_bytes`), but nothing forces us
//! to *perform* it. This module therefore splits the two concerns:
//!
//! * **Real structure.** Environments below a small binding count are
//!   scanned inline — the list is at most `INLINE_SCAN_MAX` (8) long, symbols
//!   compare as interned-id equality, and each binding caches its name
//!   length, so the walk is a handful of integer compares. Environments
//!   that grow past the threshold (in practice: the global environment) are
//!   *promoted* to an `EnvIndex`: a `HashMap<StrId, BindingId>` resolving
//!   a symbol to its newest binding in O(1).
//! * **Simulated cost.** For promoted environments the paper-model charges
//!   are *computed* instead of accumulated: a per-environment histogram of
//!   binding-name lengths prices a full miss scan in O(distinct lengths),
//!   and a per-symbol charge cache prices a hit in O(1) between defines.
//!   The cache is **epoch-stamped and lazily recomputed**: each entry
//!   remembers the environment's define count (`stamp_len`) and the
//!   histogram aggregate for its own name length (`stamp_base`) as of its
//!   last refresh, and a stale entry is brought current on its next hit
//!   from the difference of those aggregates — every define prepended
//!   since the stamp adds exactly one probe and `min(L, new_len) + 1`
//!   strcmp bytes, and the histogram (which only ever grows) recovers the
//!   byte sum without replaying the individual defines. `define` on a
//!   promoted environment is therefore O(distinct name lengths) instead of
//!   O(indexed symbols): 10k top-level defines no longer pay the old
//!   O(N²) eager reshift of every entry. The numbers stay bit-identical
//!   to what the faithful scan would have charged (debug builds
//!   cross-check every lookup; `env_equivalence` asserts it at 10k-define
//!   scale in release too).
//!
//! In debug builds every indexed lookup is cross-checked against
//! [`EnvArena::lookup_legacy`], the retained reference implementation of
//! the faithful scan — both the resolved node and the exact meter deltas
//! must agree.
//!
//! # Sync epochs (persistent worker pools)
//!
//! The real-threads `|||` backend keeps long-lived worker interpreters
//! that were forked from the master once and must observe everything the
//! master defines *afterwards*. To make that incremental, the arena keeps
//! a monotonically increasing **sync epoch** and a replay log: every
//! mutation of a *logged* environment (the persistent set, marked with
//! [`EnvArena::start_sync_log`] — in practice the global environment)
//! appends a [`SyncRecord`]. A worker that last synchronized at epoch `e`
//! replays exactly [`EnvArena::sync_records_since`]`(e)` instead of being
//! re-cloned. The log is compacted during GC (only the newest record per
//! `(environment, symbol)` is replayable — older ones are shadowed or
//! overwritten anyway), so it stays proportional to the number of
//! distinct global definitions, and surviving record values are GC roots
//! until then.
//!
//! # Replay faithfulness and the snapshot frontier
//!
//! Replicas must reproduce the master's binding lists *structurally*, not
//! just by visible value: the paper's cost model charges a lookup for
//! every binding the faithful scan walks past, so a replica missing a
//! shadowed (dead) binding would meter job evaluation differently than
//! the sequential reference. Replaying an **uncompacted** window is
//! always structure-faithful (defines prepend, sets overwrite in place —
//! the same operations the master performed). Compaction, however, drops
//! shadowed `Define` records, so a replica whose sync epoch predates a
//! dropped define can no longer be repaired incrementally. The arena
//! tracks that boundary as [`EnvArena::sync_replay_faithful_since`]: a
//! replica synced at an older epoch must be resynchronized with a whole-
//! environment snapshot ([`crate::postbox::EnvSnapshot`]) instead —
//! which also bounds the packet by the *live* environment size rather
//! than the mutation volume. Dropping superseded `Set` records never
//! moves the frontier: sets do not change list structure, and a replica
//! replaying only the newest set still converges to the right visible
//! values (intermediate values are unobservable between sync points).

use crate::cost::Meter;
use crate::strings::StrTable;
use crate::types::{BindingId, EnvId, NodeId, StrId};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–xor–shift hasher for the 4-byte interned-id keys of the symbol
/// index. SipHash (std's default) costs more than the whole inline scan it
/// replaces; id keys need no DoS resistance.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        let mut x = self.0 ^ v as u64;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        self.0 = x;
    }
}

type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// Binding-count threshold above which an environment is promoted from
/// inline scanning to a hashed symbol index. Call environments (a few
/// parameters) stay inline and allocation-free; the global environment
/// promotes while the builtins are registered.
const INLINE_SCAN_MAX: u32 = 8;

/// One `(symbol → node)` pair in an environment's linked list.
#[derive(Debug, Clone, Copy)]
struct Binding {
    sym: StrId,
    /// Byte length of the symbol's name, cached at definition time so
    /// charge computation never re-touches the string table (interned text
    /// is immutable, so the length cannot go stale).
    sym_len: u32,
    value: NodeId,
    next: Option<BindingId>,
}

/// One entry of a promoted environment's symbol index: the newest binding
/// of a symbol (the one the faithful scan finds first) together with the
/// precomputed paper-model charge of that scan — the probes and strcmp
/// bytes the faithful walk pays before (and including) the first match.
///
/// The charge halves live in [`Cell`]s because they are **lazily
/// refreshed on access** (lookup is `&self`): `probes`/`bytes` are
/// current as of `stamp_len` defines in the owning environment, and
/// [`IndexEntry::refresh`] brings a stale entry current from the
/// histogram aggregate delta instead of every define eagerly touching
/// every entry (the old O(N²) bulk-define cost).
#[derive(Debug, Clone)]
struct IndexEntry {
    binding: BindingId,
    /// Name length of the indexed symbol (the charge refresh compares it
    /// against the lengths of bindings prepended since the stamp).
    sym_len: u32,
    /// Probes the faithful scan pays to reach this binding, as of
    /// `stamp_len`. Invariant: equals the binding's 1-based position from
    /// the list head at the stamp (refreshes preserve it).
    probes: Cell<u64>,
    /// Strcmp bytes of that same scan, as of `stamp_len`.
    bytes: Cell<u64>,
    /// Owning environment's define count (`Env::len`) at the last
    /// refresh — the staleness epoch.
    stamp_len: Cell<u32>,
    /// `min_len_sum(sym_len) + len` at the last refresh; the next
    /// refresh's byte delta is the growth of this aggregate.
    stamp_base: Cell<u64>,
}

impl IndexEntry {
    /// Brings the cached hit charge current: every define since the stamp
    /// prepended one binding the faithful scan now walks past first,
    /// costing one probe and `min(sym_len, new_len) + 1` strcmp bytes —
    /// recovered in aggregate from the (append-only) length histogram.
    fn refresh(&self, index: &EnvIndex, len_now: u32) {
        if self.stamp_len.get() == len_now {
            return;
        }
        let base_now = index.min_len_sum(self.sym_len as u64) + len_now as u64;
        self.probes
            .set(self.probes.get() + (len_now - self.stamp_len.get()) as u64);
        self.bytes
            .set(self.bytes.get() + (base_now - self.stamp_base.get()));
        self.stamp_len.set(len_now);
        self.stamp_base.set(base_now);
    }

    /// The binding's current 1-based position from the list head (equals
    /// a refreshed `probes`, without forcing a byte recompute).
    fn position(&self, len_now: u32) -> u64 {
        self.probes.get() + (len_now - self.stamp_len.get()) as u64
    }
}

/// The acceleration structure of a promoted (binding-heavy) environment.
#[derive(Debug, Clone)]
struct EnvIndex {
    /// Symbol → newest binding plus its precomputed hit charge. One cheap
    /// hash probe resolves both the value and the simulated cost.
    map: HashMap<StrId, IndexEntry, IdBuildHasher>,
    /// Histogram of binding-name lengths over *all* local bindings,
    /// shadowed ones included (a miss scans past them too): sorted
    /// `(length, count)` pairs.
    len_histogram: Vec<(u32, u32)>,
}

impl EnvIndex {
    fn add_len(&mut self, len: u32) {
        match self.len_histogram.binary_search_by_key(&len, |&(l, _)| l) {
            Ok(i) => self.len_histogram[i].1 += 1,
            Err(i) => self.len_histogram.insert(i, (len, 1)),
        }
    }

    /// Σ over all bindings of `min(sym_len, binding_len)` — the variable
    /// part of a full miss scan's strcmp bytes.
    fn min_len_sum(&self, sym_len: u64) -> u64 {
        self.len_histogram
            .iter()
            .map(|&(len, count)| sym_len.min(len as u64) * count as u64)
            .sum()
    }
}

/// One environment: head of its binding list, the parent link, and (for
/// promoted environments) the symbol index.
#[derive(Debug, Clone)]
struct Env {
    parent: Option<EnvId>,
    first: Option<BindingId>,
    /// Number of local bindings, shadowed ones included.
    len: u32,
    index: Option<Box<EnvIndex>>,
}

/// How a logged environment mutation reached the arena — replaying a
/// `Define` prepends a fresh (shadowing) binding, replaying a `Set`
/// overwrites the visible binding (falling back to a define when the
/// replica never saw the original definition, e.g. after log compaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// A new binding was prepended (`defun`, top-level `let`, `setq`
    /// fallback on an unbound symbol).
    Define,
    /// The nearest existing binding's value was overwritten (`setq`).
    Set,
}

/// One replayable mutation of a logged (persistent) environment. `value`
/// is a node in the *owning* interpreter's arena; replicas re-materialize
/// it through the flat codec in [`crate::postbox`].
#[derive(Debug, Clone, Copy)]
pub struct SyncRecord {
    /// The epoch this mutation was stamped with (strictly increasing
    /// within the log, gap-free until compaction).
    pub epoch: u64,
    /// The mutated environment (persistent, so its id is stable across
    /// clones and collections).
    pub env: EnvId,
    /// The bound symbol.
    pub sym: StrId,
    /// The bound value.
    pub value: NodeId,
    /// Define vs. set semantics for replay.
    pub kind: SyncKind,
}

/// Arena of environments and bindings.
#[derive(Debug, Clone, Default)]
pub struct EnvArena {
    envs: Vec<Env>,
    bindings: Vec<Binding>,
    /// Environments with index below this record their mutations in
    /// `sync_log` (0 until [`EnvArena::start_sync_log`]).
    logged_envs: usize,
    /// Next epoch to stamp (== number of mutations ever logged).
    epoch: u64,
    /// Replayable mutations of logged environments, epoch-ascending.
    sync_log: Vec<SyncRecord>,
    /// Log length right after the last compaction (irreducible records);
    /// compaction re-runs only once the log doubles past it, so repeated
    /// collections over an already-minimal log do no work.
    compacted_len: usize,
    /// Oldest epoch from which an incremental replay is still structure-
    /// faithful (see the module docs): one past the newest `Define`
    /// record ever dropped by compaction. Replicas synced before this
    /// must snapshot-resync instead of replaying.
    faithful_epoch: u64,
}

impl EnvArena {
    /// Empty arena; create the global environment with [`EnvArena::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new environment whose parent is `parent` (`None` for the
    /// global environment).
    pub fn push(&mut self, parent: Option<EnvId>) -> EnvId {
        let id = EnvId::new(self.envs.len());
        self.envs.push(Env {
            parent,
            first: None,
            len: 0,
            index: None,
        });
        id
    }

    /// The parent of `env`, `None` at the global environment.
    pub fn parent(&self, env: EnvId) -> Option<EnvId> {
        self.envs[env.index()].parent
    }

    /// Number of environments ever created.
    pub fn env_count(&self) -> usize {
        self.envs.len()
    }

    /// Number of bindings ever created.
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    /// `true` if `env` has at least one local binding. GC root scanning
    /// uses this to skip the (numerous) dead call/worker environments that
    /// never bound anything.
    pub fn has_local_bindings(&self, env: EnvId) -> bool {
        self.envs[env.index()].first.is_some()
    }

    /// `true` once `env` carries a hashed symbol index (diagnostics,
    /// benches).
    pub fn is_promoted(&self, env: EnvId) -> bool {
        self.envs[env.index()].index.is_some()
    }

    /// Prepends a new binding `sym → value` to `env`'s local list. New
    /// bindings shadow older ones with the same symbol (both locally and up
    /// the chain) because lookup takes the first match.
    pub fn define(&mut self, env: EnvId, sym: StrId, value: NodeId, strings: &StrTable) {
        let sym_len = strings.len_of(sym) as u32;
        let b = BindingId::new(self.bindings.len());
        let head = self.envs[env.index()].first;
        self.bindings.push(Binding {
            sym,
            sym_len,
            value,
            next: head,
        });
        let e = &mut self.envs[env.index()];
        e.first = Some(b);
        e.len += 1;
        match &mut e.index {
            Some(index) => {
                // Lazy reshift: existing entries are *not* touched here —
                // each one catches up on its next hit from the histogram
                // delta (IndexEntry::refresh). Only the defined symbol
                // itself is (re)indexed, now matching at the head.
                index.add_len(sym_len);
                let stamp_base = index.min_len_sum(sym_len as u64) + e.len as u64;
                index.map.insert(
                    sym,
                    IndexEntry {
                        binding: b,
                        sym_len,
                        probes: Cell::new(1),
                        bytes: Cell::new(sym_len as u64 + 1),
                        stamp_len: Cell::new(e.len),
                        stamp_base: Cell::new(stamp_base),
                    },
                );
            }
            None => {
                if e.len > INLINE_SCAN_MAX {
                    self.promote(env);
                }
            }
        }
        self.log_mutation(env, sym, value, SyncKind::Define);
    }

    /// Overwrites the newest local binding of `sym` in `env` with `value`,
    /// or [`define`](EnvArena::define)s it when `env` has none. Uncharged,
    /// like `define`. Loop builtins rebind their variable through this
    /// each iteration, so the loop environment does not grow with the
    /// iteration count.
    pub fn rebind_local(&mut self, env: EnvId, sym: StrId, value: NodeId, strings: &StrTable) {
        let e = &self.envs[env.index()];
        let newest = match &e.index {
            Some(index) => index.map.get(&sym).map(|entry| entry.binding),
            None => {
                let mut cur = e.first;
                while let Some(b) = cur {
                    if self.bindings[b.index()].sym == sym {
                        break;
                    }
                    cur = self.bindings[b.index()].next;
                }
                cur
            }
        };
        match newest {
            Some(b) => {
                self.bindings[b.index()].value = value;
                self.log_mutation(env, sym, value, SyncKind::Set);
            }
            None => self.define(env, sym, value, strings),
        }
    }

    /// Starts recording mutations of every environment that exists right
    /// now (the persistent set) into the sync log. Called once by
    /// [`crate::interp::Interp::new`] after the builtins are registered —
    /// worker replicas fork *after* that point, so boot-time definitions
    /// never need replaying.
    pub fn start_sync_log(&mut self) {
        self.logged_envs = self.envs.len();
    }

    /// The current sync epoch: stamp a replica with this after replaying
    /// (or cloning), then replay [`EnvArena::sync_records_since`] of that
    /// stamp to catch up later.
    pub fn sync_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of records currently held in the sync log (replicas use the
    /// growth of their *own* log to detect that a parallel job mutated
    /// persistent state and their fork has diverged from the master).
    pub fn sync_log_len(&self) -> usize {
        self.sync_log.len()
    }

    /// All logged mutations stamped at `epoch` or later, oldest first.
    pub fn sync_records_since(&self, epoch: u64) -> &[SyncRecord] {
        let start = self.sync_log.partition_point(|r| r.epoch < epoch);
        &self.sync_log[start..]
    }

    #[inline]
    fn log_mutation(&mut self, env: EnvId, sym: StrId, value: NodeId, kind: SyncKind) {
        if env.index() < self.logged_envs {
            self.sync_log.push(SyncRecord {
                epoch: self.epoch,
                env,
                sym,
                value,
                kind,
            });
            self.epoch += 1;
        }
    }

    /// Drops log records that can never influence a replay again: any
    /// record for an `(environment, symbol)` pair that has a newer record
    /// is either shadowed (define) or overwritten (set), so replaying only
    /// the newest yields the same visible bindings. Epoch stamps are
    /// preserved, so replicas holding older epochs stay correct. Called by
    /// [`crate::gc::collect`] once the log outgrows a small threshold;
    /// afterwards every surviving record value equals a live binding value.
    pub(crate) fn maybe_compact_sync_log(&mut self) {
        const COMPACT_THRESHOLD: usize = 64;
        // Amortization: a log can be irreducible (every record is the
        // newest for its symbol) — re-scanning it on every collection
        // would be pure waste, so wait until it doubles past the last
        // compacted size.
        if self.sync_log.len() <= COMPACT_THRESHOLD || self.sync_log.len() < self.compacted_len * 2
        {
            return;
        }
        let mut seen: std::collections::HashSet<(EnvId, StrId)> =
            std::collections::HashSet::with_capacity(self.sync_log.len());
        let mut keep = vec![false; self.sync_log.len()];
        for (i, r) in self.sync_log.iter().enumerate().rev() {
            if seen.insert((r.env, r.sym)) {
                keep[i] = true;
            } else if r.kind == SyncKind::Define {
                // A dropped define was a (now shadowed) binding the master
                // still carries: replicas older than it can no longer be
                // repaired structure-faithfully by replay — advance the
                // snapshot frontier past it.
                self.faithful_epoch = self.faithful_epoch.max(r.epoch + 1);
            }
        }
        let mut i = 0;
        self.sync_log.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        self.compacted_len = self.sync_log.len();
    }

    /// Oldest sync epoch from which [`crate::postbox::SyncPacket`] replay
    /// still reproduces the master's binding-list structure exactly.
    /// Replicas synced before this epoch must be resynchronized with a
    /// whole-environment snapshot (see the module docs).
    pub fn sync_replay_faithful_since(&self) -> u64 {
        self.faithful_epoch
    }

    /// Number of environments recording into the sync log (the persistent
    /// set; 0 until [`EnvArena::start_sync_log`]).
    pub fn logged_env_count(&self) -> usize {
        self.logged_envs
    }

    /// Total live bindings (shadowed ones included) across the logged
    /// environments — the record count of a whole-environment snapshot,
    /// used to price snapshot-resync against incremental replay.
    pub fn logged_binding_count(&self) -> usize {
        self.envs[..self.logged_envs.min(self.envs.len())]
            .iter()
            .map(|e| e.len as usize)
            .sum()
    }

    /// Drops every local binding of `env` (list head, count and symbol
    /// index). Used by snapshot-resync to rebuild a replica's persistent
    /// environment from a master dump; the orphaned binding slots are
    /// compacted away by the replica's next
    /// [`EnvArena::reclaim_transient`].
    pub(crate) fn reset_env_bindings(&mut self, env: EnvId) {
        let e = &mut self.envs[env.index()];
        e.first = None;
        e.len = 0;
        e.index = None;
    }

    /// Values held by sync-log records. They are GC roots: between
    /// compactions a record may reference an already-overwritten value
    /// that a stale replica still needs to replay.
    pub(crate) fn sync_log_values(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sync_log.iter().map(|r| r.value)
    }

    /// Builds the symbol index for an environment that outgrew inline
    /// scanning, pricing every indexed symbol's faithful hit scan up front.
    fn promote(&mut self, env: EnvId) {
        let mut index = EnvIndex {
            map: HashMap::default(),
            len_histogram: Vec::new(),
        };
        // Lengths of the bindings already walked (head side), in order: the
        // prefix a faithful scan examines before reaching each binding.
        let mut prefix_lens: Vec<u32> = Vec::new();
        let mut cur = self.envs[env.index()].first;
        let len_now = self.envs[env.index()].len;
        while let Some(b) = cur {
            let binding = &self.bindings[b.index()];
            // Walking head-first, the first occurrence of a symbol is its
            // newest (visible) binding — only that one is indexed.
            if let std::collections::hash_map::Entry::Vacant(slot) = index.map.entry(binding.sym) {
                let sym_len = binding.sym_len as u64;
                let prefix_bytes: u64 =
                    prefix_lens.iter().map(|&l| sym_len.min(l as u64) + 1).sum();
                slot.insert(IndexEntry {
                    binding: b,
                    sym_len: binding.sym_len,
                    probes: Cell::new(prefix_lens.len() as u64 + 1),
                    bytes: Cell::new(prefix_bytes + sym_len + 1),
                    stamp_len: Cell::new(len_now),
                    stamp_base: Cell::new(0), // stamped below, once the histogram is complete
                });
            }
            index.add_len(binding.sym_len);
            prefix_lens.push(binding.sym_len);
            cur = binding.next;
        }
        // Stamp every entry's histogram aggregate now that the histogram
        // covers the whole binding list.
        for entry in index.map.values() {
            entry
                .stamp_base
                .set(index.min_len_sum(entry.sym_len as u64) + len_now as u64);
        }
        self.envs[env.index()].index = Some(Box::new(index));
    }

    /// Resolves `sym` from `env` outwards, returning the binding (if any)
    /// together with the environment that owns it, plus the exact
    /// probe/byte charges the paper's faithful scan would have paid for
    /// this resolution.
    fn find(&self, env: EnvId, sym: StrId, sym_len: u64) -> (Option<(BindingId, EnvId)>, u64, u64) {
        let mut probes = 0u64;
        let mut bytes = 0u64;
        let mut cur_env = Some(env);
        while let Some(e) = cur_env {
            let env_ref = &self.envs[e.index()];
            match &env_ref.index {
                Some(index) => {
                    if let Some(entry) = index.map.get(&sym) {
                        entry.refresh(index, env_ref.len);
                        return (
                            Some((entry.binding, e)),
                            probes + entry.probes.get(),
                            bytes + entry.bytes.get(),
                        );
                    }
                    // Miss: the faithful scan examines every local binding.
                    probes += env_ref.len as u64;
                    bytes += env_ref.len as u64 + index.min_len_sum(sym_len);
                }
                None => {
                    // Inline environment: the list is short; scan it with
                    // interned-id equality, accumulating charges as we go.
                    let mut cur = env_ref.first;
                    while let Some(b) = cur {
                        let binding = &self.bindings[b.index()];
                        probes += 1;
                        bytes += sym_len.min(binding.sym_len as u64) + 1;
                        if binding.sym == sym {
                            return (Some((b, e)), probes, bytes);
                        }
                        cur = binding.next;
                    }
                }
            }
            cur_env = env_ref.parent;
        }
        (None, probes, bytes)
    }

    /// Looks `sym` up, walking `env` then its ancestors; first match wins.
    /// Charges one probe plus a `strcmp`-equivalent byte count per binding
    /// the *faithful* scan would have examined, mirroring the C
    /// implementation's per-binding `strcmp` (see the module docs for how
    /// the charges are computed without performing that scan).
    pub fn lookup(
        &self,
        env: EnvId,
        sym: StrId,
        strings: &StrTable,
        meter: &mut Meter,
    ) -> Option<NodeId> {
        let sym_len = strings.len_of(sym) as u64;
        let (found, probes, bytes) = self.find(env, sym, sym_len);
        meter.env_probes_n(probes);
        meter.symbol_cmp_bytes(bytes);
        let result = found.map(|(b, _)| self.bindings[b.index()].value);
        #[cfg(debug_assertions)]
        self.crosscheck_against_legacy(env, sym, strings, result, probes, bytes);
        result
    }

    /// `setq` semantics: overwrites the nearest existing binding of `sym`
    /// walking outwards from `env`. Returns `true` when a binding was
    /// found and updated; the caller falls back to a global `define`
    /// otherwise. Charges exactly like [`EnvArena::lookup`].
    pub fn set_nearest(
        &mut self,
        env: EnvId,
        sym: StrId,
        value: NodeId,
        strings: &StrTable,
        meter: &mut Meter,
    ) -> bool {
        let sym_len = strings.len_of(sym) as u64;
        let (found, probes, bytes) = self.find(env, sym, sym_len);
        meter.env_probes_n(probes);
        meter.symbol_cmp_bytes(bytes);
        #[cfg(debug_assertions)]
        self.crosscheck_against_legacy(
            env,
            sym,
            strings,
            found.map(|(b, _)| self.bindings[b.index()].value),
            probes,
            bytes,
        );
        match found {
            Some((b, owner)) => {
                // Value mutation only: scan order, name lengths and the
                // symbol index are all unaffected.
                self.bindings[b.index()].value = value;
                self.log_mutation(owner, sym, value, SyncKind::Set);
                true
            }
            None => false,
        }
    }

    /// Reference implementation: the seed's faithful linear scan, charging
    /// the meter per binding examined exactly as the C original's `strcmp`
    /// walk would. Kept for the debug-mode cross-check and the equivalence
    /// property tests; the optimized [`EnvArena::lookup`] must return the
    /// same node *and* the same meter deltas.
    pub fn lookup_legacy(
        &self,
        env: EnvId,
        sym: StrId,
        strings: &StrTable,
        meter: &mut Meter,
    ) -> Option<NodeId> {
        let sym_len = strings.len_of(sym) as u64;
        let mut cur_env = Some(env);
        while let Some(e) = cur_env {
            let mut cur = self.envs[e.index()].first;
            while let Some(b) = cur {
                let binding = &self.bindings[b.index()];
                meter.env_probe();
                // The C code strcmp()s the two names; equal-length prefix
                // comparison is the dominant cost, so charge the shorter of
                // the two lengths plus the terminator check.
                let cmp_len = sym_len.min(strings.len_of(binding.sym) as u64) + 1;
                meter.symbol_cmp_bytes(cmp_len);
                if binding.sym == sym {
                    return Some(binding.value);
                }
                cur = binding.next;
            }
            cur_env = self.envs[e.index()].parent;
        }
        None
    }

    #[cfg(debug_assertions)]
    fn crosscheck_against_legacy(
        &self,
        env: EnvId,
        sym: StrId,
        strings: &StrTable,
        result: Option<NodeId>,
        probes: u64,
        bytes: u64,
    ) {
        let mut legacy_meter = Meter::new();
        let legacy = self.lookup_legacy(env, sym, strings, &mut legacy_meter);
        debug_assert_eq!(
            legacy, result,
            "indexed lookup result diverged from the legacy scan"
        );
        let counters = legacy_meter.snapshot();
        debug_assert_eq!(
            (counters.env_probes, counters.symbol_cmp_bytes),
            (probes, bytes),
            "indexed lookup charges diverged from the legacy scan"
        );
    }

    /// Iterates the local bindings of one environment (no parents), newest
    /// first. Used by GC root scanning and diagnostics.
    pub fn local_bindings(&self, env: EnvId) -> impl Iterator<Item = (StrId, NodeId)> + '_ {
        LocalIter {
            arena: self,
            cur: self.envs[env.index()].first,
        }
    }

    /// Drops every environment past the first `keep_envs` (the persistent
    /// set: the global environment and anything created before evaluation
    /// started) and compacts the binding arena down to the bindings those
    /// environments still reference.
    ///
    /// CuLi is dynamically scoped: no node ever captures an environment, so
    /// environments created *during* evaluation (form applications, `let`
    /// blocks, `|||` workers) are garbage the moment evaluation returns.
    /// [`crate::gc::collect`] calls this between evaluations — without it,
    /// every form application leaks an environment whose bindings pin
    /// otherwise-dead nodes forever, and root scanning re-walks an
    /// ever-growing environment list each collection.
    ///
    /// Callers must not retain [`EnvId`]s or [`BindingId`]s of transient
    /// environments across this call.
    pub(crate) fn reclaim_transient(&mut self, keep_envs: usize) {
        if self.envs.len() <= keep_envs
            && self.bindings.len() as u64 == self.persistent_binding_estimate(keep_envs)
        {
            return;
        }
        let mut new_bindings: Vec<Binding> = Vec::new();
        for e in 0..keep_envs.min(self.envs.len()) {
            // Rebuild this environment's chain, preserving order: the
            // binding at head-position p lands at `base + p`.
            let base = new_bindings.len();
            let mut cur = self.envs[e].first;
            let mut new_first: Option<BindingId> = None;
            let mut prev: Option<usize> = None;
            while let Some(b) = cur {
                let mut binding = self.bindings[b.index()];
                cur = binding.next;
                binding.next = None;
                let idx = new_bindings.len();
                new_bindings.push(binding);
                match prev {
                    None => new_first = Some(BindingId::new(idx)),
                    Some(p) => new_bindings[p].next = Some(BindingId::new(idx)),
                }
                prev = Some(idx);
            }
            self.envs[e].first = new_first;
            // Remap the symbol index positionally: a (refreshed) entry's
            // `probes` is exactly its binding's 1-based position from the
            // head, so the relocated id is `base + position - 1` — where
            // `position` accounts for defines the lazy entry has not yet
            // caught up with (charges are positional and unaffected by
            // the move).
            let len_now = self.envs[e].len;
            if let Some(index) = &mut self.envs[e].index {
                for entry in index.map.values_mut() {
                    entry.binding = BindingId::new(base + entry.position(len_now) as usize - 1);
                }
            }
        }
        self.envs.truncate(keep_envs);
        self.bindings = new_bindings;
    }

    fn persistent_binding_estimate(&self, keep_envs: usize) -> u64 {
        self.envs[..keep_envs.min(self.envs.len())]
            .iter()
            .map(|e| e.len as u64)
            .sum()
    }
}

struct LocalIter<'a> {
    arena: &'a EnvArena,
    cur: Option<BindingId>,
}

impl Iterator for LocalIter<'_> {
    type Item = (StrId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let b = self.cur?;
        let binding = &self.arena.bindings[b.index()];
        self.cur = binding.next;
        Some((binding.sym, binding.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (EnvArena, StrTable, Meter) {
        (EnvArena::new(), StrTable::new(), Meter::new())
    }

    #[test]
    fn define_then_lookup() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let x = strs.intern(b"x");
        let n = NodeId::new(7);
        envs.define(g, x, n, &strs);
        assert_eq!(envs.lookup(g, x, &strs, &mut m), Some(n));
    }

    #[test]
    fn lookup_missing_returns_none() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let x = strs.intern(b"x");
        assert_eq!(envs.lookup(g, x, &strs, &mut m), None);
    }

    #[test]
    fn child_sees_parent_bindings() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let child = envs.push(Some(g));
        let x = strs.intern(b"x");
        let n = NodeId::new(1);
        envs.define(g, x, n, &strs);
        assert_eq!(envs.lookup(child, x, &strs, &mut m), Some(n));
    }

    #[test]
    fn local_binding_shadows_parent() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let child = envs.push(Some(g));
        let x = strs.intern(b"x");
        envs.define(g, x, NodeId::new(1), &strs);
        envs.define(child, x, NodeId::new(2), &strs);
        assert_eq!(envs.lookup(child, x, &strs, &mut m), Some(NodeId::new(2)));
        assert_eq!(
            envs.lookup(g, x, &strs, &mut m),
            Some(NodeId::new(1)),
            "parent unaffected"
        );
    }

    #[test]
    fn rebinding_locally_shadows_older_local() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let x = strs.intern(b"x");
        envs.define(g, x, NodeId::new(1), &strs);
        envs.define(g, x, NodeId::new(2), &strs);
        assert_eq!(envs.lookup(g, x, &strs, &mut m), Some(NodeId::new(2)));
    }

    #[test]
    fn set_nearest_updates_local_over_global() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let child = envs.push(Some(g));
        let x = strs.intern(b"x");
        envs.define(g, x, NodeId::new(1), &strs);
        envs.define(child, x, NodeId::new(2), &strs);
        assert!(envs.set_nearest(child, x, NodeId::new(9), &strs, &mut m));
        assert_eq!(envs.lookup(child, x, &strs, &mut m), Some(NodeId::new(9)));
        assert_eq!(envs.lookup(g, x, &strs, &mut m), Some(NodeId::new(1)));
    }

    #[test]
    fn set_nearest_reaches_global_when_no_local() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let child = envs.push(Some(g));
        let x = strs.intern(b"x");
        envs.define(g, x, NodeId::new(1), &strs);
        assert!(envs.set_nearest(child, x, NodeId::new(5), &strs, &mut m));
        assert_eq!(
            envs.lookup(g, x, &strs, &mut m),
            Some(NodeId::new(5)),
            "global mutated"
        );
    }

    #[test]
    fn set_nearest_misses_when_unbound() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let x = strs.intern(b"x");
        assert!(!envs.set_nearest(g, x, NodeId::new(5), &strs, &mut m));
    }

    #[test]
    fn sibling_environments_are_isolated() {
        // Paper §III-D b: each worker's environment chains to the |||
        // expression's env; workers cannot see each other's bindings.
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let w1 = envs.push(Some(g));
        let w2 = envs.push(Some(g));
        let x = strs.intern(b"x");
        envs.define(w1, x, NodeId::new(11), &strs);
        assert_eq!(envs.lookup(w2, x, &strs, &mut m), None);
    }

    #[test]
    fn lookup_charges_probe_and_cmp_costs() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let a = strs.intern(b"alpha");
        let b = strs.intern(b"beta");
        envs.define(g, a, NodeId::new(1), &strs);
        envs.define(g, b, NodeId::new(2), &strs);
        // Looking up `alpha` probes `beta` (head) first, then `alpha`.
        let before = m.snapshot();
        envs.lookup(g, a, &strs, &mut m).unwrap();
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.env_probes, 2);
        // min(5,4)+1 = 5 bytes vs beta, min(5,5)+1 = 6 vs alpha.
        assert_eq!(d.symbol_cmp_bytes, 11);
    }

    #[test]
    fn local_bindings_iterates_newest_first() {
        let (mut envs, mut strs, _m) = fixture();
        let g = envs.push(None);
        let x = strs.intern(b"x");
        let y = strs.intern(b"y");
        envs.define(g, x, NodeId::new(1), &strs);
        envs.define(g, y, NodeId::new(2), &strs);
        let names: Vec<StrId> = envs.local_bindings(g).map(|(s, _)| s).collect();
        assert_eq!(names, vec![y, x]);
    }

    /// Fills one environment past the promotion threshold with numbered
    /// symbols; returns the ids in definition order.
    fn populate(envs: &mut EnvArena, strs: &mut StrTable, env: EnvId, n: usize) -> Vec<StrId> {
        (0..n)
            .map(|i| {
                let sym = strs.intern(format!("sym-{i}").as_bytes());
                envs.define(env, sym, NodeId::new(i), strs);
                sym
            })
            .collect()
    }

    #[test]
    fn promotion_preserves_results_and_charges() {
        // A large environment promotes to the hashed index; every lookup
        // (hit at every scan depth, plus a miss) must agree with the legacy
        // scan in both value and charges. Debug builds assert this inside
        // lookup; assert it explicitly so release test runs cover it too.
        let (mut envs, mut strs, _m) = fixture();
        let g = envs.push(None);
        let syms = populate(&mut envs, &mut strs, g, 40);
        assert!(envs.is_promoted(g));
        let missing = strs.intern(b"missing-symbol");
        for &sym in syms.iter().chain([&missing]) {
            let mut fast = Meter::new();
            let mut slow = Meter::new();
            let a = envs.lookup(g, sym, &strs, &mut fast);
            let b = envs.lookup_legacy(g, sym, &strs, &mut slow);
            assert_eq!(a, b);
            assert_eq!(fast.snapshot(), slow.snapshot(), "charges for {sym:?}");
        }
    }

    #[test]
    fn charges_track_defines_after_caching() {
        // Cache a hit charge, then prepend more bindings (including a
        // shadowing one) and make sure the memoized charges update.
        let (mut envs, mut strs, _m) = fixture();
        let g = envs.push(None);
        let syms = populate(&mut envs, &mut strs, g, 20);
        let probe = syms[3];
        let mut before = Meter::new();
        envs.lookup(g, probe, &strs, &mut before); // populates the cache
        let longer = strs.intern(b"a-much-longer-symbol-name");
        envs.define(g, longer, NodeId::new(99), &strs);
        envs.define(g, syms[7], NodeId::new(98), &strs); // shadow another
        for &sym in &[probe, syms[7], longer] {
            let mut fast = Meter::new();
            let mut slow = Meter::new();
            assert_eq!(
                envs.lookup(g, sym, &strs, &mut fast),
                envs.lookup_legacy(g, sym, &strs, &mut slow)
            );
            assert_eq!(fast.snapshot(), slow.snapshot(), "charges for {sym:?}");
        }
    }

    #[test]
    fn sync_log_records_only_logged_envs() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let boot = strs.intern(b"boot");
        envs.define(g, boot, NodeId::new(0), &strs); // before logging starts
        envs.start_sync_log();
        assert_eq!(envs.sync_epoch(), 0);
        let x = strs.intern(b"x");
        envs.define(g, x, NodeId::new(1), &strs);
        let child = envs.push(Some(g));
        let y = strs.intern(b"y");
        envs.define(child, y, NodeId::new(2), &strs); // transient: unlogged
        assert!(envs.set_nearest(child, x, NodeId::new(3), &strs, &mut m));
        let records = envs.sync_records_since(0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].sym, x);
        assert_eq!(records[0].kind, SyncKind::Define);
        assert_eq!(records[1].kind, SyncKind::Set);
        assert_eq!(records[1].env, g, "set logged against the owning env");
        assert_eq!(records[1].value, NodeId::new(3));
        assert_eq!(envs.sync_records_since(1).len(), 1);
        assert_eq!(envs.sync_records_since(2).len(), 0);
        assert_eq!(envs.sync_epoch(), 2);
    }

    #[test]
    fn sync_log_compaction_keeps_newest_per_symbol() {
        let (mut envs, mut strs, _m) = fixture();
        let g = envs.push(None);
        envs.start_sync_log();
        let syms: Vec<StrId> = (0..10)
            .map(|i| strs.intern(format!("s{i}").as_bytes()))
            .collect();
        for round in 0..10 {
            for (i, &sym) in syms.iter().enumerate() {
                envs.define(g, sym, NodeId::new(round * 10 + i), &strs);
            }
        }
        assert_eq!(envs.sync_log_len(), 100);
        envs.maybe_compact_sync_log();
        let records = envs.sync_records_since(0);
        assert_eq!(records.len(), 10, "one surviving record per symbol");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.value, NodeId::new(90 + i), "newest value survives");
        }
        // Epochs stay ascending so replica replay boundaries stay valid.
        assert!(records.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(envs.sync_epoch(), 100);
    }

    #[test]
    fn compaction_tracks_the_faithfulness_frontier() {
        let (mut envs, mut strs, _m) = fixture();
        let g = envs.push(None);
        envs.start_sync_log();
        let x = strs.intern(b"x");
        envs.define(g, x, NodeId::new(1), &strs); // epoch 0: shadowed later
        envs.define(g, x, NodeId::new(2), &strs); // epoch 1: kept
        for i in 0..70 {
            let s = strs.intern(format!("q{i}").as_bytes());
            envs.define(g, s, NodeId::new(i), &strs);
        }
        assert_eq!(envs.sync_replay_faithful_since(), 0);
        envs.maybe_compact_sync_log();
        // The dropped shadowed define carried epoch 0: replicas synced at
        // epoch 0 can no longer be repaired by replay.
        assert_eq!(envs.sync_replay_faithful_since(), 1);
    }

    #[test]
    fn dropping_superseded_sets_keeps_replay_faithful() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let y = strs.intern(b"y");
        // The binding predates the log (a boot/builtin-era definition), so
        // the log holds only Set records for it.
        envs.define(g, y, NodeId::new(0), &strs);
        envs.start_sync_log();
        for i in 0..70 {
            assert!(envs.set_nearest(g, y, NodeId::new(i), &strs, &mut m));
        }
        envs.maybe_compact_sync_log();
        // Sets never change list structure, so collapsing them does not
        // move the snapshot frontier.
        assert_eq!(envs.sync_replay_faithful_since(), 0);
        assert_eq!(envs.sync_records_since(0).len(), 1, "newest set only");
        assert_eq!(envs.sync_records_since(0)[0].value, NodeId::new(69));
    }

    #[test]
    fn dropping_a_set_superseded_define_moves_the_frontier() {
        // define y → set y: compaction keeps only the newest set, and the
        // dropped *define* makes older replicas unrepairable by replay
        // (a fallback re-define would land at the wrong list position if
        // other defines interleaved), so the frontier must move.
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        envs.start_sync_log();
        let y = strs.intern(b"y");
        envs.define(g, y, NodeId::new(0), &strs); // epoch 0: dropped
        for i in 0..70 {
            assert!(envs.set_nearest(g, y, NodeId::new(i), &strs, &mut m));
        }
        envs.maybe_compact_sync_log();
        assert_eq!(envs.sync_replay_faithful_since(), 1);
    }

    #[test]
    fn reset_env_bindings_clears_list_and_index() {
        let (mut envs, mut strs, mut m) = fixture();
        let g = envs.push(None);
        let syms = populate(&mut envs, &mut strs, g, 40);
        assert!(envs.is_promoted(g));
        assert_eq!(envs.logged_binding_count(), 0, "log not started");
        envs.reset_env_bindings(g);
        assert!(!envs.has_local_bindings(g));
        assert!(!envs.is_promoted(g));
        assert_eq!(envs.lookup(g, syms[0], &strs, &mut m), None);
        // Redefining re-promotes once the threshold is crossed again.
        let again = populate(&mut envs, &mut strs, g, 40);
        assert!(envs.is_promoted(g));
        assert_eq!(
            envs.lookup(g, again[5], &strs, &mut m),
            Some(NodeId::new(5))
        );
    }

    #[test]
    fn deep_chain_misses_price_every_environment() {
        // A lookup that misses everywhere charges the full scan of every
        // environment on the chain, exactly like the legacy walk.
        let (mut envs, mut strs, _m) = fixture();
        let g = envs.push(None);
        populate(&mut envs, &mut strs, g, 30);
        let mut env = g;
        for i in 0..6 {
            env = envs.push(Some(env));
            let sym = strs.intern(format!("local-{i}").as_bytes());
            envs.define(env, sym, NodeId::new(i), &strs);
        }
        let missing = strs.intern(b"nope");
        let mut fast = Meter::new();
        let mut slow = Meter::new();
        assert_eq!(envs.lookup(env, missing, &strs, &mut fast), None);
        assert_eq!(envs.lookup_legacy(env, missing, &strs, &mut slow), None);
        assert_eq!(fast.snapshot(), slow.snapshot());
    }
}
