//! The query-level result cache: serve **repeated enumerations** from the
//! interned solution store instead of re-running Algorithm 3.
//!
//! Production traffic over a data graph is repetitive — the same keyword
//! query, the same multicast group, the same pin set arrive again and
//! again while the graph itself changes rarely. A [`ResultCache`] keys a
//! finished enumeration by `(problem kind, graph fingerprint, query
//! fingerprint, limit)` and stores its full delivered stream as
//! [`SolutionId`]s in one shared [`SolutionInterner`] arena; a later run
//! of the identical query replays the interned stream in the exact
//! original order — O(output) total, no search, no per-solution
//! allocation beyond what the consumer itself does.
//!
//! The cache is wired in behind the builder:
//! [`Enumeration::cached`](crate::solver::Enumeration::cached) consults it
//! before preparing the problem and records into it at the delivery point
//! (the merge point under
//! [`with_threads`](crate::solver::Enumeration::with_threads), so cached
//! streams are byte-identical to sequential ones). Only **complete**
//! streams are stored: a run aborted early (a sink returning `Break`
//! before the configured limit, or an expired deadline) is discarded, so
//! a hit always reproduces exactly what a cold run of the same builder
//! configuration would deliver.
//!
//! Push and pull replay a hit the same way: the lookup checks the entry's
//! solutions out under refcounts (an eviction cannot free them), the
//! replay copies them out under one lock and hands the references back,
//! and delivery runs unlocked — so a slow consumer never holds the lock,
//! and a sink may query the same cache.
//!
//! Capacity is bounded by [`ResultCache::with_capacity_bytes`]: entries
//! are evicted least-recently-used, their solutions' refcounts released,
//! and the shared arena compacted once dead bytes dominate. Hit/miss
//! counters surface both here ([`ResultCache::stats`]) and per run in
//! [`EnumStats`](crate::stats::EnumStats).
//!
//! ```
//! use steiner_core::cache::ResultCache;
//! use steiner_core::{Enumeration, SteinerTree};
//! use steiner_graph::{EdgeId, UndirectedGraph, VertexId};
//!
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! let cache: ResultCache<EdgeId> = ResultCache::new();
//! let w = [VertexId(0), VertexId(2)];
//!
//! // Cold: runs the engine, then stores the delivered stream.
//! let cold = Enumeration::new(SteinerTree::new(&g, &w))
//!     .cached(&cache)
//!     .collect_vec()
//!     .unwrap();
//! // Warm: identical query, identical stream — served from the cache.
//! let warm = Enumeration::new(SteinerTree::new(&g, &w))
//!     .cached(&cache)
//!     .collect_vec()
//!     .unwrap();
//! assert_eq!(cold, warm);
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

use crate::intern::{SolutionId, SolutionInterner};
use crate::snapshot::{
    fnv1a, Reader, SnapshotError, SnapshotItem, Writer, MAGIC, SNAPSHOT_VERSION,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use steiner_graph::epoch::{RegionMap, RegionSignature};
use steiner_graph::VertexId;

/// Compact the shared arena once dead bytes pass this share of it.
const COMPACT_DEAD_FRACTION: f64 = 0.5;

/// What a [`MinimalSteinerProblem`](crate::problem::MinimalSteinerProblem)
/// reports about its identity for caching: the problem kind, the
/// epoch-qualified **region signature** of the graph regions the query
/// touches, and a fingerprint of the query parameters (terminals,
/// terminal sets, root).
///
/// The region signature ([`RegionSignature`]) carries the `(region id,
/// region fingerprint)` pairs of every connected component the query's
/// vertices lie in. Because the signature is *part of the key*, an entry
/// hits iff every region its query touched is unchanged on the serving
/// graph — a mutation in one region leaves entries keyed to other regions
/// hitting, with no explicit epoch comparison needed at lookup time.
///
/// Two instances with equal keys must enumerate identical solution
/// streams; the fingerprints are ordinary 64-bit hashes, so implementors
/// hash every piece of state that influences the stream (collisions are
/// astronomically unlikely but not impossible — the cache trades that for
/// never retaining a copy of the graph).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// The problem kind (its `NAME`), separating e.g. Steiner-tree from
    /// terminal-Steiner-tree streams over the same graph and terminals.
    pub kind: &'static str,
    /// Region signature of the instance graph restricted to the query's
    /// vertices: which components the stream can mention, each pinned to
    /// its exact edge-id/endpoint assignment.
    pub regions: RegionSignature,
    /// Fingerprint of the query parameters (terminals / sets / root) in
    /// the problem's **canonical** form — the four paper problems hash
    /// sorted terminals (or the reduced pair list), since `prepare()`
    /// canonicalizes and the stream cannot depend on the caller's order.
    pub query_fingerprint: u64,
}

/// The full lookup key: a [`CacheKey`] plus the builder's delivery limit
/// (a `with_limit(10)` stream is a different — shorter — stream than the
/// unlimited one over the same instance).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct QueryKey {
    pub(crate) key: CacheKey,
    pub(crate) limit: Option<u64>,
}

/// Counters describing a [`ResultCache`]'s effectiveness.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that fell through to a real enumeration.
    pub misses: u64,
    /// Entries (distinct queries) currently stored.
    pub entries: u64,
    /// Solution references across all entries (an interned solution
    /// shared by `q` queries counts `q` times here but is stored once).
    pub solutions: u64,
    /// Bytes of live interned solution payload in the shared arena.
    pub bytes: u64,
    /// Entries dropped by LRU eviction so far.
    pub evictions: u64,
    /// Arena compactions performed so far (dead interned bytes reclaimed
    /// in place after evictions and rollbacks pushed the dead fraction
    /// past the threshold, plus the final reclaim of [`ResultCache::clear`]).
    pub compactions: u64,
}

/// Pressure deltas one cache mutation caused: entries evicted to make
/// room, and arena compactions it triggered. The builder folds these into
/// the recording run's [`EnumStats`](crate::stats::EnumStats) so cache
/// pressure is attributable per run (and, aggregated, per tenant).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CachePressure {
    pub(crate) evicted: u64,
    pub(crate) compactions: u64,
}

struct Entry {
    ids: Vec<SolutionId>,
    last_used: u64,
}

struct Inner<Item> {
    store: SolutionInterner<Item>,
    map: HashMap<QueryKey, Entry>,
    /// Monotonic logical clock for LRU accounting.
    epoch: u64,
    capacity_bytes: Option<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    compactions: u64,
}

impl<Item: Copy + Eq + Hash> Inner<Item> {
    /// Compacts the arena when dead bytes dominate, counting the pass.
    /// Returns how many compactions ran (0 or 1) for pressure accounting.
    fn maybe_compact(&mut self) -> u64 {
        if self.store.dead_fraction() > COMPACT_DEAD_FRACTION {
            self.store.compact();
            self.compactions += 1;
            1
        } else {
            0
        }
    }

    /// Drops one reference per id, then compacts when dead bytes
    /// dominate. Returns how many compactions ran.
    fn release(&mut self, ids: &[SolutionId]) -> u64 {
        for &id in ids {
            self.store.release(id);
        }
        self.maybe_compact()
    }
}

impl<Item> Default for Inner<Item> {
    fn default() -> Self {
        Inner {
            store: SolutionInterner::default(),
            map: HashMap::new(),
            epoch: 0,
            capacity_bytes: None,
            hits: 0,
            misses: 0,
            evictions: 0,
            compactions: 0,
        }
    }
}

/// A shared, clonable, thread-safe query→solutions cache over one
/// hash-consing arena. See the [module documentation](self) for the
/// contract and an end-to-end example.
pub struct ResultCache<Item> {
    inner: Arc<Mutex<Inner<Item>>>,
}

impl<Item> Clone for ResultCache<Item> {
    fn clone(&self) -> Self {
        ResultCache {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<Item> Default for ResultCache<Item> {
    fn default() -> Self {
        ResultCache {
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }
}

impl<Item: Copy + Eq + Hash> ResultCache<Item> {
    /// An unbounded cache (entries live until [`Self::clear`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that evicts least-recently-used entries once the live
    /// interned payload exceeds `bytes`.
    ///
    /// The most recently stored entry is always retained, so a single
    /// stream larger than `bytes` stays cached (and over cap) until a
    /// newer entry displaces it — the cap bounds accumulation across
    /// queries, not the size of one answer.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        let cache = Self::default();
        cache.lock().capacity_bytes = Some(bytes);
        cache
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len() as u64,
            solutions: inner.map.values().map(|e| e.ids.len() as u64).sum(),
            bytes: inner.store.bytes(),
            evictions: inner.evictions,
            compactions: inner.compactions,
        }
    }

    /// Drops every entry and reclaims the arena.
    pub fn clear(&self) {
        let mut inner = self.lock();
        let entries: Vec<Entry> = inner.map.drain().map(|(_, e)| e).collect();
        for entry in entries {
            for id in entry.ids {
                inner.store.release(id);
            }
        }
        inner.store.compact();
        inner.compactions += 1;
    }

    /// Bytes of live interned payload (the figure reported as
    /// [`EnumStats::interned_bytes`](crate::stats::EnumStats) after a
    /// cached run).
    pub fn bytes(&self) -> u64 {
        self.lock().store.bytes()
    }

    /// Looks `key` up, counting a hit or a miss (callers fall through to a
    /// real enumeration on a miss). A hit touches the entry's LRU clock
    /// and is **checked out**: its ids, with one reference taken per
    /// solution, so an eviction between this lookup and the
    /// [`Checkout::replay`] cannot free them.
    pub(crate) fn checkout(&self, key: &QueryKey) -> Option<Checkout<Item>> {
        let mut inner = self.lock();
        inner.epoch += 1;
        let epoch = inner.epoch;
        let Some(entry) = inner.map.get_mut(key) else {
            inner.misses += 1;
            return None;
        };
        entry.last_used = epoch;
        let ids = entry.ids.clone();
        inner.hits += 1;
        for &id in &ids {
            inner.store.acquire(id);
        }
        Some(Checkout {
            cache: self.clone(),
            ids,
        })
    }

    /// Interns one delivered solution while a cold run is being recorded
    /// (takes a reference; the recording either becomes an entry via
    /// [`Self::store_entry`] or is rolled back via [`Self::release_ids`]).
    pub(crate) fn intern(&self, items: &[Item]) -> SolutionId {
        self.lock().store.intern(items)
    }

    /// Stores a completed recording under `key`, then enforces the byte
    /// capacity by LRU eviction. Replaces any racing entry for the same
    /// key (the streams are identical by construction). Returns the
    /// pressure this store caused — entries evicted and compactions run —
    /// for the recording run's [`EnumStats`](crate::stats::EnumStats).
    pub(crate) fn store_entry(&self, key: QueryKey, ids: Vec<SolutionId>) -> CachePressure {
        let mut inner = self.lock();
        inner.epoch += 1;
        let entry = Entry {
            ids,
            last_used: inner.epoch,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            for id in old.ids {
                inner.store.release(id);
            }
        }
        let mut pressure = CachePressure::default();
        if let Some(cap) = inner.capacity_bytes {
            if inner.store.bytes() > cap && inner.map.len() > 1 {
                // One LRU-ordered sweep, evicting until under the cap —
                // O(N log N) per store instead of an O(N) scan per
                // evicted entry, all under the same lock.
                let mut by_age: Vec<(u64, QueryKey)> = inner
                    .map
                    .iter()
                    .map(|(k, e)| (e.last_used, k.clone()))
                    .collect();
                by_age.sort_unstable_by_key(|&(age, _)| age);
                for (_, oldest) in by_age {
                    if inner.store.bytes() <= cap || inner.map.len() <= 1 {
                        break;
                    }
                    let evicted = inner.map.remove(&oldest).expect("key from the sweep");
                    for id in evicted.ids {
                        inner.store.release(id);
                    }
                    inner.evictions += 1;
                    pressure.evicted += 1;
                }
            }
        }
        pressure.compactions += inner.maybe_compact();
        pressure
    }

    /// Hands back the references of a rolled-back recording, compacting
    /// when dead bytes dominate. Returns the pressure (compactions only —
    /// releases never evict entries).
    pub(crate) fn release_ids(&self, ids: &[SolutionId]) -> CachePressure {
        CachePressure {
            evicted: 0,
            compactions: self.lock().release(ids),
        }
    }

    /// Counts a miss for a query that could not even be keyed or looked
    /// up through the fast path (used by the builder when a problem
    /// reports no [`CacheKey`]).
    pub(crate) fn note_miss(&self) {
        self.lock().misses += 1;
    }

    /// Drops every entry whose region signature intersects `touched`
    /// (sorted region ids from a mutation report), releasing their
    /// solutions. Entries keyed entirely to untouched regions are
    /// retained — their keys still match the post-mutation graph, so they
    /// keep hitting. Returns `(retained, invalidated)` entry counts.
    ///
    /// Hashed lookup already makes stale entries unreachable (their
    /// signature no longer matches the serving graph's region map); this
    /// pass additionally reclaims their bytes instead of waiting for LRU
    /// pressure to age them out.
    pub fn invalidate_regions(&self, touched: &[u32]) -> (u64, u64) {
        let mut inner = self.lock();
        let stale: Vec<QueryKey> = inner
            .map
            .keys()
            .filter(|k| k.key.regions.intersects(touched))
            .cloned()
            .collect();
        let invalidated = stale.len() as u64;
        for key in stale {
            let entry = inner.map.remove(&key).expect("key from the scan");
            for id in entry.ids {
                inner.store.release(id);
            }
        }
        inner.maybe_compact();
        let retained = inner.map.len() as u64;
        (retained, invalidated)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<Item>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A stored stream checked out by [`ResultCache::checkout`], holding one
/// reference per solution until [`Self::replay`] hands them back.
pub(crate) struct Checkout<Item> {
    cache: ResultCache<Item>,
    ids: Vec<SolutionId>,
}

impl<Item: Copy + Eq + Hash> Checkout<Item> {
    /// Delivers the checked-out stream into `deliver`, in original order,
    /// until it returns `Break`. This is the cache's only replay path,
    /// under both front-ends: the solutions are copied out of the arena
    /// and the references handed back under **one** lock, then delivered
    /// **unlocked** — so the sink may block (the iterator's bounded
    /// channel) or re-enter this cache (nested queries, `stats()`)
    /// without deadlocking.
    pub(crate) fn replay(self, deliver: &mut dyn FnMut(&[Item]) -> ControlFlow<()>) {
        let (flat, lens) = {
            let mut inner = self.cache.lock();
            let total: usize = self
                .ids
                .iter()
                .map(|&id| inner.store.resolve(id).len())
                .sum();
            let mut flat: Vec<Item> = Vec::with_capacity(total);
            let mut lens: Vec<u32> = Vec::with_capacity(self.ids.len());
            for &id in &self.ids {
                let items = inner.store.resolve(id);
                flat.extend_from_slice(items);
                lens.push(items.len() as u32);
            }
            inner.release(&self.ids);
            (flat, lens)
        };
        let mut start = 0usize;
        for len in lens {
            let end = start + len as usize;
            if deliver(&flat[start..end]).is_break() {
                break;
            }
            start = end;
        }
    }
}

/// Size of the fixed snapshot header: magic, version, item tag, checksum.
const SNAPSHOT_HEADER_BYTES: usize = 4 + 4 + 4 + 8;

impl<Item: Copy + Eq + Hash + SnapshotItem> ResultCache<Item> {
    /// Serializes the cache's entries and their deduplicated solution
    /// payload into the versioned, checksummed format described in
    /// [`crate::snapshot`]. Deterministic: equal contents produce equal
    /// bytes (entries are sorted by key). Hit/miss counters and the LRU
    /// clock are *not* persisted — a snapshot captures answers, not
    /// telemetry.
    pub fn snapshot(&self) -> Vec<u8> {
        let inner = self.lock();
        let mut keys: Vec<&QueryKey> = inner.map.keys().collect();
        keys.sort_unstable();
        let mut kinds: Vec<&'static str> = keys.iter().map(|k| k.key.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        // Solutions table in first-reference order, hash-consed: an id
        // shared by several entries is written once and indexed.
        let mut sol_index: HashMap<SolutionId, u32> = HashMap::new();
        let mut order: Vec<SolutionId> = Vec::new();
        for k in &keys {
            for &id in &inner.map[*k].ids {
                sol_index.entry(id).or_insert_with(|| {
                    order.push(id);
                    (order.len() - 1) as u32
                });
            }
        }
        let mut w = Writer::new();
        w.u32(kinds.len() as u32);
        for kind in &kinds {
            w.str(kind);
        }
        w.u32(order.len() as u32);
        for &id in &order {
            let items = inner.store.resolve(id);
            w.u32(items.len() as u32);
            for &item in items {
                w.u32(item.to_raw());
            }
        }
        w.u32(keys.len() as u32);
        for k in &keys {
            let entry = &inner.map[*k];
            let kind_idx = kinds
                .iter()
                .position(|&name| name == k.key.kind)
                .expect("kind collected from the same key set");
            w.u32(kind_idx as u32);
            let pairs = k.key.regions.pairs();
            w.u32(pairs.len() as u32);
            for &(region, fp) in pairs {
                w.u32(region);
                w.u64(fp);
            }
            w.u64(k.key.query_fingerprint);
            match k.limit {
                None => {
                    w.u32(0);
                    w.u64(0);
                }
                Some(l) => {
                    w.u32(1);
                    w.u64(l);
                }
            }
            w.u32(entry.ids.len() as u32);
            for &id in &entry.ids {
                w.u32(sol_index[&id]);
            }
        }
        let payload = w.buf;
        let mut out = Vec::with_capacity(SNAPSHOT_HEADER_BYTES + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&Item::TAG.to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Loads a [`Self::snapshot`] into this cache, returning how many
    /// entries were restored. The whole snapshot is validated — magic,
    /// version, item tag, checksum, structure, problem kinds (matched
    /// against `kinds`, usually
    /// [`paper_problem_kinds`](crate::snapshot::paper_problem_kinds)),
    /// and, when `expected` is given, every `(region, fingerprint)` pair
    /// of every entry's signature against the serving graph's region map
    /// — **before** anything is mutated: a rejected snapshot leaves the
    /// cache exactly as it was, and is never partially or silently
    /// served. Pre-epoch (v1) blobs are refused with
    /// [`SnapshotError::VersionSkew`].
    ///
    /// Restored entries merge with existing contents (same-key entries
    /// are replaced; the streams are identical by construction when keys
    /// collide honestly). Hit/miss counters are unaffected, and the byte
    /// capacity is not enforced during the load — the next recorded
    /// entry evicts as usual.
    pub fn restore(
        &self,
        bytes: &[u8],
        kinds: &[&'static str],
        expected: Option<&RegionMap>,
    ) -> Result<u64, SnapshotError> {
        let parsed = Self::parse_snapshot(bytes, kinds, expected)?;
        // Everything validated — commit under one lock.
        let mut inner = self.lock();
        let mut restored = 0u64;
        for (qkey, idxs) in parsed.entries {
            inner.epoch += 1;
            let epoch = inner.epoch;
            let ids: Vec<SolutionId> = idxs
                .iter()
                .map(|&i| inner.store.intern(&parsed.solutions[i as usize]))
                .collect();
            let entry = Entry {
                ids,
                last_used: epoch,
            };
            if let Some(old) = inner.map.insert(qkey, entry) {
                for id in old.ids {
                    inner.store.release(id);
                }
            }
            restored += 1;
        }
        Ok(restored)
    }

    /// Runs [`Self::restore`]'s full validation — header, checksum,
    /// structure, kinds, region signatures — without committing
    /// anything. Callers composing several snapshots atomically (the
    /// `steiner-service` engine frames an edge and an arc snapshot
    /// together) validate every part first so a half-bad blob cannot
    /// leave the stores half-restored.
    pub fn validate_snapshot(
        &self,
        bytes: &[u8],
        kinds: &[&'static str],
        expected: Option<&RegionMap>,
    ) -> Result<(), SnapshotError> {
        Self::parse_snapshot(bytes, kinds, expected).map(|_| ())
    }

    /// Decodes and fully validates a snapshot without touching the
    /// cache. Shared by [`Self::restore`] and [`Self::validate_snapshot`].
    fn parse_snapshot(
        bytes: &[u8],
        kinds: &[&'static str],
        expected: Option<&RegionMap>,
    ) -> Result<ParsedSnapshot<Item>, SnapshotError> {
        if bytes.len() < SNAPSHOT_HEADER_BYTES {
            return Err(SnapshotError::Corrupted("header truncated"));
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::Corrupted("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionSkew {
                stored: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let tag = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if tag != Item::TAG {
            return Err(SnapshotError::ItemKindMismatch {
                stored: tag,
                expected: Item::TAG,
            });
        }
        let checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload = &bytes[SNAPSHOT_HEADER_BYTES..];
        if fnv1a(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = Reader::new(payload);
        // Counts come from the (checksummed) payload, but still bound
        // every preallocation by the payload size: each element costs at
        // least 4 bytes, so a structurally absurd count fails cheaply in
        // the element loop instead of aborting on allocation.
        let prealloc_cap = payload.len() / 4;
        let kind_count = r.u32()? as usize;
        let mut kind_names: Vec<&'static str> = Vec::with_capacity(kind_count.min(prealloc_cap));
        for _ in 0..kind_count {
            let name = r.str()?;
            let resolved = kinds
                .iter()
                .copied()
                .find(|&k| k == name)
                .ok_or(SnapshotError::UnknownProblemKind(name))?;
            kind_names.push(resolved);
        }
        let sol_count = r.u32()? as usize;
        let mut solutions: Vec<Vec<Item>> = Vec::with_capacity(sol_count.min(prealloc_cap));
        for _ in 0..sol_count {
            let len = r.u32()? as usize;
            let mut items: Vec<Item> = Vec::with_capacity(len.min(prealloc_cap));
            for _ in 0..len {
                items.push(Item::from_raw(r.u32()?));
            }
            solutions.push(items);
        }
        let entry_count = r.u32()? as usize;
        let mut entries: Vec<(QueryKey, Vec<u32>)> =
            Vec::with_capacity(entry_count.min(prealloc_cap));
        for _ in 0..entry_count {
            let kind_idx = r.u32()? as usize;
            let kind = *kind_names
                .get(kind_idx)
                .ok_or(SnapshotError::Corrupted("kind index out of range"))?;
            let pair_count = r.u32()? as usize;
            let mut pairs: Vec<(u32, u64)> = Vec::with_capacity(pair_count.min(prealloc_cap));
            for _ in 0..pair_count {
                let region = r.u32()?;
                let fp = r.u64()?;
                if let Some(map) = expected {
                    let current = map.fingerprint(region);
                    if current != Some(fp) {
                        return Err(SnapshotError::GraphMismatch {
                            stored: fp,
                            expected: current.unwrap_or(0),
                        });
                    }
                }
                pairs.push((region, fp));
            }
            let regions = RegionSignature::from_pairs(pairs);
            let query_fingerprint = r.u64()?;
            let limit = match (r.u32()?, r.u64()?) {
                (0, _) => None,
                (1, l) => Some(l),
                _ => return Err(SnapshotError::Corrupted("bad limit flag")),
            };
            let n = r.u32()? as usize;
            let mut idxs: Vec<u32> = Vec::with_capacity(n.min(prealloc_cap));
            for _ in 0..n {
                let i = r.u32()?;
                if i as usize >= solutions.len() {
                    return Err(SnapshotError::Corrupted("solution index out of range"));
                }
                idxs.push(i);
            }
            entries.push((
                QueryKey {
                    key: CacheKey {
                        kind,
                        regions,
                        query_fingerprint,
                    },
                    limit,
                },
                idxs,
            ));
        }
        r.finish()?;
        Ok(ParsedSnapshot { solutions, entries })
    }
}

/// A decoded, fully validated snapshot awaiting commit.
struct ParsedSnapshot<Item> {
    /// Deduplicated solution payload, indexed by the entries below.
    solutions: Vec<Vec<Item>>,
    /// Cache entries as (key, indices into `solutions`).
    entries: Vec<(QueryKey, Vec<u32>)>,
}

fn hasher() -> std::collections::hash_map::DefaultHasher {
    std::collections::hash_map::DefaultHasher::new()
}

/// Fingerprint of a terminal list, order-sensitive. Problems whose
/// `prepare()` canonicalizes the terminal order (all four paper problems
/// sort it) should fingerprint the canonical — sorted — form, so
/// permuted repeats of the same logical query share one cache entry;
/// duplicates and out-of-range ids stay distinguishable because the full
/// multiset is hashed.
pub fn fingerprint_terminals(terminals: &[VertexId]) -> u64 {
    let mut h = hasher();
    for w in terminals {
        w.0.hash(&mut h);
    }
    terminals.len().hash(&mut h);
    h.finish()
}

/// Fingerprint of a family of terminal sets (the Steiner-forest query
/// shape), order-sensitive within and across sets. As with
/// [`fingerprint_terminals`], prefer fingerprinting the problem's
/// canonical form — for forests that is the reduced pair list
/// ([`fingerprint_vertex_pairs`] over
/// [`pairs_from_sets`](crate::forest::pairs_from_sets)).
pub fn fingerprint_terminal_sets(sets: &[Vec<VertexId>]) -> u64 {
    let mut h = hasher();
    sets.len().hash(&mut h);
    for set in sets {
        set.len().hash(&mut h);
        for w in set {
            w.0.hash(&mut h);
        }
    }
    h.finish()
}

/// Fingerprint of a vertex-pair list — the Steiner-forest problem's
/// canonical query form (sorted, deduplicated connection requirements).
pub fn fingerprint_vertex_pairs(pairs: &[(VertexId, VertexId)]) -> u64 {
    let mut h = hasher();
    pairs.len().hash(&mut h);
    for (a, b) in pairs {
        (a.0, b.0).hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use steiner_graph::{DiGraph, EdgeId, UndirectedGraph};

    fn key(kind: &'static str, q: u64, limit: Option<u64>) -> QueryKey {
        QueryKey {
            key: CacheKey {
                kind,
                regions: RegionSignature::from_pairs(vec![(0, 1)]),
                query_fingerprint: q,
            },
            limit,
        }
    }

    fn sols(lens: &[usize]) -> Vec<Vec<EdgeId>> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| (0..l).map(|j| EdgeId((i * 100 + j) as u32)).collect())
            .collect()
    }

    fn record(cache: &ResultCache<EdgeId>, k: QueryKey, solutions: &[Vec<EdgeId>]) {
        let ids: Vec<SolutionId> = solutions.iter().map(|s| cache.intern(s)).collect();
        cache.store_entry(k, ids);
    }

    fn replay_all(cache: &ResultCache<EdgeId>, k: &QueryKey) -> Option<Vec<Vec<EdgeId>>> {
        cache.checkout(k).map(collect)
    }

    fn collect(hit: Checkout<EdgeId>) -> Vec<Vec<EdgeId>> {
        let mut out = Vec::new();
        hit.replay(&mut |items| {
            out.push(items.to_vec());
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn store_then_replay_round_trips_in_order() {
        let cache = ResultCache::new();
        let k = key("st", 7, None);
        let solutions = sols(&[3, 1, 2]);
        record(&cache, k.clone(), &solutions);
        assert_eq!(replay_all(&cache, &k).unwrap(), solutions);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.solutions), (1, 0, 1, 3));
        assert!(s.bytes > 0);
    }

    #[test]
    fn distinct_limits_are_distinct_entries() {
        let cache = ResultCache::new();
        let full = sols(&[1, 2, 3]);
        record(&cache, key("st", 7, None), &full);
        record(&cache, key("st", 7, Some(2)), &full[..2]);
        assert_eq!(replay_all(&cache, &key("st", 7, Some(2))).unwrap().len(), 2);
        assert_eq!(replay_all(&cache, &key("st", 7, None)).unwrap().len(), 3);
        assert!(replay_all(&cache, &key("st", 8, None)).is_none(), "miss");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn shared_solutions_are_stored_once() {
        let cache = ResultCache::new();
        let solutions = sols(&[2, 2, 4]);
        record(&cache, key("st", 1, None), &solutions);
        let before = cache.bytes();
        // A second query with the same payload (e.g. its limit-3 prefix
        // under another key) adds references, not bytes.
        record(&cache, key("st", 1, Some(3)), &solutions);
        assert_eq!(cache.bytes(), before, "hash-consing across entries");
        assert_eq!(cache.stats().solutions, 6, "but both entries are whole");
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        // Each entry is one 25-item solution = 100 bytes; three fit.
        let cache = ResultCache::with_capacity_bytes(350);
        let payloads: Vec<Vec<Vec<EdgeId>>> = (0u32..4)
            .map(|i| vec![(0u32..25).map(|j| EdgeId(i * 1000 + j)).collect()])
            .collect();
        for (i, p) in payloads.iter().enumerate().take(3) {
            record(&cache, key("st", i as u64, None), p);
        }
        assert_eq!(cache.stats().evictions, 0, "three entries fit");
        // Touch entry 0 so entry 1 is the LRU victim of the next insert.
        assert!(replay_all(&cache, &key("st", 0, None)).is_some());
        record(&cache, key("st", 3, None), &payloads[3]);
        assert!(cache.stats().bytes <= 350);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            replay_all(&cache, &key("st", 1, None)).is_none(),
            "the least recently used entry was evicted"
        );
        assert!(replay_all(&cache, &key("st", 0, None)).is_some());
        assert!(replay_all(&cache, &key("st", 2, None)).is_some());
        assert!(replay_all(&cache, &key("st", 3, None)).is_some());
    }

    #[test]
    fn checkout_survives_eviction() {
        // One 25-item solution = 100 bytes; a second entry overflows.
        let cache = ResultCache::with_capacity_bytes(120);
        let payload = |i: u32| vec![(0u32..25).map(|j| EdgeId(i * 1000 + j)).collect()];
        let a: Vec<Vec<EdgeId>> = payload(0);
        record(&cache, key("st", 0, None), &a);
        let hit = cache.checkout(&key("st", 0, None)).expect("hit");
        // Evict the entry by inserting two more oversized ones.
        record(&cache, key("st", 1, None), &payload(1));
        record(&cache, key("st", 2, None), &payload(2));
        assert_eq!(cache.stats().evictions, 2, "the checked-out entry is gone");
        assert_eq!(cache.bytes(), 200, "but its references keep it alive");
        // The replay delivers the evicted stream, then hands the
        // references back.
        assert_eq!(collect(hit), a);
        assert_eq!(cache.bytes(), 100, "only the newest entry stays live");
    }

    #[test]
    fn replay_sink_may_reenter_the_cache() {
        let cache = ResultCache::new();
        let k = key("st", 3, None);
        record(&cache, k.clone(), &sols(&[2, 3]));
        let mut seen = 0;
        cache.checkout(&k).expect("hit").replay(&mut |_| {
            // A sink that inspects — or even queries — the same cache
            // must not deadlock: replay delivers outside the lock.
            assert!(cache.stats().entries >= 1);
            assert!(replay_all(&cache, &key("st", 99, None)).is_none());
            assert_eq!(replay_all(&cache, &k).expect("nested hit").len(), 2);
            seen += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn store_entry_reports_eviction_pressure() {
        // Same shape as the LRU test: three 100-byte entries fit, the
        // fourth forces one eviction — and the store that caused it gets
        // the delta back for its run's stats.
        let cache = ResultCache::with_capacity_bytes(350);
        let payloads: Vec<Vec<Vec<EdgeId>>> = (0u32..4)
            .map(|i| vec![(0u32..25).map(|j| EdgeId(i * 1000 + j)).collect()])
            .collect();
        for (i, p) in payloads.iter().enumerate().take(3) {
            let ids: Vec<SolutionId> = p.iter().map(|s| cache.intern(s)).collect();
            let pressure = cache.store_entry(key("st", i as u64, None), ids);
            assert_eq!(pressure, CachePressure::default(), "within capacity");
        }
        let ids: Vec<SolutionId> = payloads[3].iter().map(|s| cache.intern(s)).collect();
        let pressure = cache.store_entry(key("st", 3, None), ids);
        assert_eq!(pressure.evicted, 1, "the displaced entry is attributed");
        assert_eq!(cache.stats().evictions, 1, "and counted globally");
        assert_eq!(cache.stats().compactions, pressure.compactions);
    }

    #[test]
    fn rollback_release_reports_compaction_pressure() {
        // A rolled-back recording that dominated the arena triggers a
        // compaction, attributed to the releasing run.
        let cache: ResultCache<EdgeId> = ResultCache::new();
        record(&cache, key("st", 0, None), &sols(&[2]));
        let big: Vec<Vec<EdgeId>> = sols(&[40, 40, 40]);
        let ids: Vec<SolutionId> = big.iter().map(|s| cache.intern(s)).collect();
        let pressure = cache.release_ids(&ids);
        assert_eq!(pressure.evicted, 0, "releases never evict entries");
        assert_eq!(pressure.compactions, 1, "dead bytes dominated");
        assert_eq!(cache.stats().compactions, 1);
        // The surviving entry still replays.
        assert_eq!(replay_all(&cache, &key("st", 0, None)).unwrap(), sols(&[2]));
    }

    #[test]
    fn clear_empties_everything() {
        let cache = ResultCache::new();
        record(&cache, key("st", 0, None), &sols(&[3, 4]));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.solutions, s.bytes), (0, 0, 0));
        assert!(replay_all(&cache, &key("st", 0, None)).is_none());
    }

    #[test]
    fn fingerprints_separate_structures() {
        let g1 = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let g2 = UndirectedGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        assert_ne!(
            RegionMap::of_undirected(&g1).fold(),
            RegionMap::of_undirected(&g2).fold()
        );
        let mut d1 = DiGraph::new(2);
        d1.add_arc_indices(0, 1).unwrap();
        let mut d2 = DiGraph::new(2);
        d2.add_arc_indices(1, 0).unwrap();
        assert_ne!(
            RegionMap::of_digraph(&d1).fold(),
            RegionMap::of_digraph(&d2).fold()
        );
        assert_ne!(
            fingerprint_terminals(&[VertexId(0), VertexId(1)]),
            fingerprint_terminals(&[VertexId(1), VertexId(0)]),
            "terminal order changes the emission order, so it must key"
        );
        assert_ne!(
            fingerprint_terminal_sets(&[vec![VertexId(0)], vec![VertexId(1)]]),
            fingerprint_terminal_sets(&[vec![VertexId(0), VertexId(1)]]),
            "set boundaries matter"
        );
    }
}
