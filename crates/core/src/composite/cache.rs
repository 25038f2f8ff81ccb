//! Generation-invalidated hierarchy cache for the §3 traversals.
//!
//! Walking a composite hierarchy costs one object fetch-and-decode per
//! visited node *per traversal* — repeat `components-of`/`ancestors-of`
//! calls over a stable hierarchy redo all of that work. This cache memoises
//! the hierarchy-shaped slice of each object (its level-1 component set and
//! its reverse composite references) plus the two closures the traversals
//! derive from them (the unfiltered ancestor set and the root set).
//!
//! **Invalidation** is deliberately coarse: the [`Database`] bumps a
//! monotonically increasing *hierarchy generation* on every object write
//! (`save`/`insert_object`/`erase` — which covers `make_component`,
//! `set_attr` and the recursive Deletion Rule; a transaction folds its
//! writes into one bump at commit or abort) and on every DDL entry point
//! (schema evolution can change reference flags *without* touching stored
//! objects, via the deferred operation logs of §4.3). A
//! lookup that observes a generation newer than the one the cached maps
//! were built under drops the whole cache. Coarse invalidation trades
//! repeat-read speed for write-path simplicity — exactly the right trade
//! for the read-mostly traversal workloads of §3 — and makes staleness
//! impossible by construction: every mutation path funnels through a bump.
//!
//! Reads are `&self` and internally synchronised (atomics + one `RwLock`),
//! so concurrent readers share the cache; mutations require `&mut Database`
//! and therefore never race a reader.
//!
//! **Accounting** goes to monotonic registry counters
//! (`corion_traversal_cache_{hits,misses,invalidations}_total`, surfaced
//! by [`Database::metrics_snapshot`](crate::db::Database::metrics_snapshot)).
//!
//! [`Database`]: crate::db::Database

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use corion_obs::Registry;
use parking_lot::RwLock;

use crate::oid::Oid;
use crate::refs::ReverseRef;
use crate::schema::attr::CompositeSpec;

/// The cached maps, all built under one generation.
#[derive(Default)]
struct Maps {
    /// Generation the maps are valid for.
    valid_for: u64,
    /// Level-1 component set: every forward composite reference of the key,
    /// as `(attribute spec, component)` pairs in attribute order.
    children: HashMap<Oid, Arc<Vec<(CompositeSpec, Oid)>>>,
    /// Reverse composite references of the key (post-deferred-maintenance).
    parents: HashMap<Oid, Arc<Vec<ReverseRef>>>,
    /// Unfiltered ancestor closure of the key, BFS order.
    ancestors: HashMap<Oid, Arc<Vec<Oid>>>,
    /// Roots of every composite object containing the key.
    roots: HashMap<Oid, Arc<Vec<Oid>>>,
}

impl Maps {
    fn is_empty(&self) -> bool {
        self.children.is_empty()
            && self.parents.is_empty()
            && self.ancestors.is_empty()
            && self.roots.is_empty()
    }

    fn clear(&mut self) {
        self.children.clear();
        self.parents.clear();
        self.ancestors.clear();
        self.roots.clear();
    }
}

/// The per-database traversal cache. See the module docs for the contract.
pub(crate) struct TraversalCache {
    generation: AtomicU64,
    /// While a transaction is open the cache stands aside: per-write bumps
    /// are deferred to one bump at commit/abort, so without suppression a
    /// mid-transaction traversal could be served a pre-transaction entry
    /// (stale) or could cache an uncommitted one. Suppressed lookups
    /// return `None` and suppressed stores drop the value, both uncounted.
    suppressed: AtomicBool,
    /// Monotonic registry counters. An invalidation is a lookup that found
    /// the cache stale and dropped it (at most one per generation bump, no
    /// matter how many entries were cached).
    hits_total: corion_obs::Counter,
    misses_total: corion_obs::Counter,
    invalidations_total: corion_obs::Counter,
    /// `corion_hierarchy_generation`, mirrored on every bump.
    generation_gauge: corion_obs::Gauge,
    maps: RwLock<Maps>,
}

impl TraversalCache {
    pub(crate) fn new(registry: &Registry) -> Self {
        TraversalCache {
            generation: AtomicU64::new(0),
            suppressed: AtomicBool::new(false),
            hits_total: registry.counter("corion_traversal_cache_hits_total"),
            misses_total: registry.counter("corion_traversal_cache_misses_total"),
            invalidations_total: registry.counter("corion_traversal_cache_invalidations_total"),
            generation_gauge: registry.gauge("corion_hierarchy_generation"),
            maps: RwLock::new(Maps::default()),
        }
    }

    /// Declares that the hierarchy may have changed. Cached entries built
    /// under earlier generations are dropped lazily, on the next lookup.
    pub(crate) fn bump(&self) {
        let gen = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.generation_gauge
            .set(i64::try_from(gen).unwrap_or(i64::MAX));
    }

    /// The current hierarchy generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Turns transaction-scoped suppression on or off (see the field docs).
    pub(crate) fn set_suppressed(&self, on: bool) {
        self.suppressed.store(on, Ordering::Relaxed);
    }

    /// Looks one map up, counting a hit or a miss and flushing stale maps
    /// first. `select` picks the map out of [`Maps`].
    fn lookup<V: Clone>(&self, key: Oid, select: impl Fn(&Maps) -> &HashMap<Oid, V>) -> Option<V> {
        if self.suppressed.load(Ordering::Relaxed) {
            return None;
        }
        let gen = self.generation();
        {
            let maps = self.maps.read();
            if maps.valid_for == gen {
                return match select(&maps).get(&key) {
                    Some(v) => {
                        self.hits_total.inc();
                        Some(v.clone())
                    }
                    None => {
                        self.misses_total.inc();
                        None
                    }
                };
            }
        }
        // Stale: flush under the write lock (another thread may have done it
        // meanwhile — re-check so one bump counts one invalidation).
        let mut maps = self.maps.write();
        if maps.valid_for != gen {
            if !maps.is_empty() {
                self.invalidations_total.inc();
            }
            maps.clear();
            maps.valid_for = gen;
        }
        self.misses_total.inc();
        None
    }

    /// Stores into one map, unless the maps went stale since the lookup
    /// (impossible while readers hold `&Database`, but cheap to re-check).
    fn store<V>(&self, key: Oid, value: V, select: impl Fn(&mut Maps) -> &mut HashMap<Oid, V>) {
        if self.suppressed.load(Ordering::Relaxed) {
            return;
        }
        let gen = self.generation();
        let mut maps = self.maps.write();
        if maps.valid_for == gen {
            select(&mut maps).insert(key, value);
        }
    }

    pub(crate) fn children(&self, oid: Oid) -> Option<Arc<Vec<(CompositeSpec, Oid)>>> {
        self.lookup(oid, |m| &m.children)
    }

    pub(crate) fn store_children(&self, oid: Oid, v: Arc<Vec<(CompositeSpec, Oid)>>) {
        self.store(oid, v, |m| &mut m.children);
    }

    pub(crate) fn parents(&self, oid: Oid) -> Option<Arc<Vec<ReverseRef>>> {
        self.lookup(oid, |m| &m.parents)
    }

    pub(crate) fn store_parents(&self, oid: Oid, v: Arc<Vec<ReverseRef>>) {
        self.store(oid, v, |m| &mut m.parents);
    }

    pub(crate) fn ancestors(&self, oid: Oid) -> Option<Arc<Vec<Oid>>> {
        self.lookup(oid, |m| &m.ancestors)
    }

    pub(crate) fn store_ancestors(&self, oid: Oid, v: Arc<Vec<Oid>>) {
        self.store(oid, v, |m| &mut m.ancestors);
    }

    pub(crate) fn roots(&self, oid: Oid) -> Option<Arc<Vec<Oid>>> {
        self.lookup(oid, |m| &m.roots)
    }

    pub(crate) fn store_roots(&self, oid: Oid, v: Arc<Vec<Oid>>) {
        self.store(oid, v, |m| &mut m.roots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::{ClassId, Oid};

    fn oid(n: u64) -> Oid {
        Oid::new(ClassId(1), n)
    }

    fn cache() -> (TraversalCache, Registry) {
        let registry = Registry::new();
        (TraversalCache::new(&registry), registry)
    }

    /// `(hits, misses, invalidations)` from the registry counters (all
    /// zero when metric recording is compiled out).
    fn counts(registry: &Registry) -> (u64, u64, u64) {
        let snap = registry.snapshot();
        (
            snap.counter("corion_traversal_cache_hits_total"),
            snap.counter("corion_traversal_cache_misses_total"),
            snap.counter("corion_traversal_cache_invalidations_total"),
        )
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let (c, registry) = cache();
        assert!(c.roots(oid(1)).is_none());
        c.store_roots(oid(1), Arc::new(vec![oid(2)]));
        assert_eq!(c.roots(oid(1)).as_deref(), Some(&vec![oid(2)]));
        if cfg!(feature = "obs") {
            assert_eq!(counts(&registry), (1, 1, 0));
        }
    }

    #[test]
    fn bump_invalidates_everything_once() {
        let (c, registry) = cache();
        c.roots(oid(1));
        c.store_roots(oid(1), Arc::new(vec![]));
        c.ancestors(oid(1));
        c.store_ancestors(oid(1), Arc::new(vec![]));
        c.bump();
        c.bump(); // two bumps, but one flush event
        assert!(c.roots(oid(1)).is_none());
        assert!(c.ancestors(oid(1)).is_none());
        assert_eq!(c.generation(), 2);
        if cfg!(feature = "obs") {
            assert_eq!(counts(&registry).2, 1);
            assert_eq!(registry.snapshot().gauge("corion_hierarchy_generation"), 2);
        }
    }

    #[test]
    fn store_under_stale_generation_is_dropped() {
        let (c, _registry) = cache();
        c.roots(oid(1)); // primes valid_for = 0
        c.bump();
        c.store_roots(oid(1), Arc::new(vec![oid(9)])); // stale: discarded
        assert!(c.roots(oid(1)).is_none());
    }

    #[test]
    fn concurrent_readers_share_entries() {
        let (c, registry) = cache();
        c.children(oid(7));
        c.store_children(oid(7), Arc::new(vec![]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        assert!(c.children(oid(7)).is_some());
                    }
                });
            }
        });
        if cfg!(feature = "obs") {
            assert_eq!(counts(&registry).0, 400);
        }
    }
}
