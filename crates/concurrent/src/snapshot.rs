//! Lock-free snapshot reads.
//!
//! A [`Snapshot`] pins a commit LSN `S` and observes exactly the
//! transactions that committed with LSN ≤ `S`. Reads resolve against
//! the version store's chains first — entirely latch- and lock-free —
//! and fall back to the base store only for objects no concurrent
//! transaction has versioned. The fallback takes the engine's *shared*
//! latch and re-checks the chain under it, which closes the race with a
//! commit in flight: commits mutate the base only under the exclusive
//! latch, and they seed every pre-image before doing so, so "no chain
//! under the latch" proves the base value is the snapshot value.
//!
//! Traversals (`subtree_of`, `ancestors_of`) hold the shared latch for
//! the whole walk and serve unversioned nodes from the engine's traversal
//! cache; see [`Snapshot::subtree_of`] for why that is the snapshot
//! answer.
//!
//! Snapshots never take lock-manager locks, so they can neither block a
//! writer nor deadlock. A commit's exclusive publish waits only for the
//! shared-latch reads already in flight — at most one walk per reader.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use corion_core::schema::lattice;
use corion_core::{ClassId, Database, DbError, DbResult, Object, Oid, Value};
use corion_storage::{Lsn, Resolution, VersionKey};

use crate::db::Shared;

fn vkey(oid: Oid) -> VersionKey {
    VersionKey {
        class: oid.class.0,
        serial: oid.serial,
    }
}

/// A pinned, consistent read view of the database. Obtain with
/// [`ConcurrentDb::begin_read`](crate::ConcurrentDb::begin_read);
/// dropping releases the pin. Snapshots are `Send` and independent of
/// the handle that created them.
pub struct Snapshot {
    shared: Arc<Shared>,
    lsn: Lsn,
    epoch: u64,
}

impl Snapshot {
    pub(crate) fn begin(shared: Arc<Shared>) -> Self {
        let lsn = shared.versions.pin();
        let epoch = shared.epoch.load(Ordering::SeqCst);
        Snapshot { shared, lsn, epoch }
    }

    /// The commit LSN this snapshot observes: every transaction with
    /// commit LSN at or below this is visible, nothing else is.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    fn ensure_valid(&self) -> DbResult<()> {
        if self.shared.epoch.load(Ordering::SeqCst) != self.epoch {
            return Err(DbError::TransactionState {
                reason: "the engine recovered while this snapshot was pinned".into(),
            });
        }
        Ok(())
    }

    /// Resolve one object at the snapshot LSN: `Ok(None)` means "not
    /// visible" (never existed, unborn, or deleted by then). Chain hits
    /// are served latch-free; only the base fallback takes the latch.
    fn read(&self, oid: Oid) -> DbResult<Option<Object>> {
        self.ensure_valid()?;
        match self.shared.versions.resolve(vkey(oid), self.lsn) {
            Resolution::Image(bytes) => Ok(Some(decode(&bytes)?)),
            Resolution::Deleted | Resolution::Unborn => Ok(None),
            Resolution::Base => self.read_latched(&self.shared.db.read(), oid),
        }
    }

    /// [`Snapshot::read`] under a shared latch the caller already holds.
    fn read_latched(&self, db: &Database, oid: Oid) -> DbResult<Option<Object>> {
        match self.node(db, oid)? {
            Some(Node::Image(obj)) => Ok(Some(obj)),
            Some(Node::Base) => db.get(oid).map(Some),
            None => Ok(None),
        }
    }

    /// Resolve one object under the shared latch `db`. The chain probe
    /// must run under the latch: a commit may have seeded a chain (and
    /// changed the base) since any earlier lock-free probe.
    fn node(&self, db: &Database, oid: Oid) -> DbResult<Option<Node>> {
        Ok(match self.shared.versions.resolve(vkey(oid), self.lsn) {
            Resolution::Image(bytes) => Some(Node::Image(decode(&bytes)?)),
            Resolution::Deleted | Resolution::Unborn => None,
            Resolution::Base => db.exists(oid).then_some(Node::Base),
        })
    }

    /// Load an object. Errors with `NoSuchObject` if it is not visible
    /// at this snapshot.
    pub fn get(&self, oid: Oid) -> DbResult<Object> {
        self.read(oid)?.ok_or(DbError::NoSuchObject(oid))
    }

    /// True if the object is visible at this snapshot.
    pub fn exists(&self, oid: Oid) -> DbResult<bool> {
        Ok(self.read(oid)?.is_some())
    }

    /// Read one attribute by name.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        let db = self.shared.db.read();
        self.ensure_valid()?;
        let obj = self
            .read_latched(&db, oid)?
            .ok_or(DbError::NoSuchObject(oid))?;
        let no_such_attr = || DbError::NoSuchAttribute {
            class: oid.class,
            attr: attr.into(),
        };
        let idx = db
            .class(oid.class)?
            .attr_index(attr)
            .ok_or_else(no_such_attr)?;
        obj.attrs.get(idx).cloned().ok_or_else(no_such_attr)
    }

    /// Direct (or, with `deep`, subclass-inclusive) instances of `class`
    /// visible at this snapshot, sorted.
    pub fn instances_of(&self, class: ClassId, deep: bool) -> DbResult<Vec<Oid>> {
        self.ensure_valid()?;
        let (mut base, classes) = {
            let db = self.shared.db.read();
            let mut classes = vec![class];
            if deep {
                classes.extend(lattice::descendants(db.catalog(), class));
            }
            (db.instances_of(class, deep), classes)
        };
        base.sort();
        // Overlay the version chains: objects deleted after base-read
        // but visible at the snapshot come back; objects in the base
        // that are unborn or deleted at the snapshot drop out.
        for c in classes {
            for (key, res) in self.shared.versions.resolve_class(c.0, self.lsn) {
                let oid = Oid {
                    class: ClassId(key.class),
                    serial: key.serial,
                };
                match res {
                    Resolution::Image(_) => {
                        if base.binary_search(&oid).is_err() {
                            base.push(oid);
                            base.sort();
                        }
                    }
                    Resolution::Deleted | Resolution::Unborn => {
                        if let Ok(i) = base.binary_search(&oid) {
                            base.remove(i);
                        }
                    }
                    Resolution::Base => {}
                }
            }
        }
        Ok(base)
    }

    /// The direct components of `oid`: every reference held in one of
    /// its composite attributes, as visible at this snapshot.
    pub fn components_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        let db = self.shared.db.read();
        self.ensure_valid()?;
        let obj = self
            .read_latched(&db, oid)?
            .ok_or(DbError::NoSuchObject(oid))?;
        composite_refs(&db, oid, &obj)
    }

    /// The composite parents of `oid` (from its reverse references).
    pub fn parents_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        Ok(self.get(oid)?.composite_parents())
    }

    /// Every ancestor of `oid` reachable through composite parents
    /// (transitive closure, `oid` excluded), sorted.
    ///
    /// Like [`Snapshot::subtree_of`], one shared-latch hold and one chain
    /// probe per node; unversioned nodes take their parents from the
    /// engine's memoised reverse references.
    pub fn ancestors_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        let db = self.shared.db.read();
        self.ensure_valid()?;
        let parents = |o: Oid| -> DbResult<Option<Vec<Oid>>> {
            Ok(match self.node(&db, o)? {
                Some(Node::Image(obj)) => Some(obj.composite_parents()),
                Some(Node::Base) => Some(
                    db.reverse_composite_refs(o)?
                        .iter()
                        .map(|r| r.parent)
                        .collect(),
                ),
                None => None,
            })
        };
        let mut seen = HashSet::new();
        let mut queue = parents(oid)?.ok_or(DbError::NoSuchObject(oid))?;
        let mut out = Vec::new();
        while let Some(p) = queue.pop() {
            if !seen.insert(p) {
                continue;
            }
            out.push(p);
            if let Some(ps) = parents(p)? {
                queue.extend(ps);
            }
        }
        out.sort();
        Ok(out)
    }

    /// The full component subtree below `oid` (transitive closure,
    /// `oid` included), in discovery order.
    ///
    /// The walk holds the shared latch once and probes each node's chain
    /// once. A versioned node decodes its chain image; an unversioned one
    /// takes its children from the engine's memoised level-1 set. That is
    /// its snapshot answer: base writes and cache-generation bumps both
    /// need the exclusive latch, so under the shared latch a node with no
    /// chain has the same children in the base, the cache and the
    /// snapshot.
    pub fn subtree_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        let db = self.shared.db.read();
        self.ensure_valid()?;
        let mut seen = HashSet::new();
        let mut queue = vec![oid];
        let mut out = Vec::new();
        while let Some(o) = queue.pop() {
            if !seen.insert(o) {
                continue;
            }
            match self.node(&db, o)? {
                Some(Node::Image(obj)) => queue.extend(composite_refs(&db, o, &obj)?),
                Some(Node::Base) => {
                    queue.extend(db.forward_composite_refs(o)?.iter().map(|&(_, c)| c))
                }
                None => continue,
            }
            out.push(o);
        }
        Ok(out)
    }
}

/// One visible node, resolved at a snapshot under the shared latch.
enum Node {
    /// The snapshot sees this version-chain image.
    Image(Object),
    /// No chain: the live base object is the snapshot object.
    Base,
}

fn decode(bytes: &[u8]) -> DbResult<Object> {
    Object::decode(bytes).map_err(DbError::from)
}

/// Every reference `obj` (an image of `oid`) holds in a composite
/// attribute, in attribute order.
fn composite_refs(db: &Database, oid: Oid, obj: &Object) -> DbResult<Vec<Oid>> {
    let class = db.class(oid.class)?;
    let mut out = Vec::new();
    for (def, value) in class.attrs.iter().zip(obj.attrs.iter()) {
        if def.composite.is_some() {
            out.extend(value.refs());
        }
    }
    Ok(out)
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.shared.versions.unpin(self.lsn);
    }
}
