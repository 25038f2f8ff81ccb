//! Lock planning: from "this operation touches these objects" to the §7
//! composite lock set.
//!
//! The paper's protocol locks composite objects **from the root**: to
//! touch any part of a composite object, lock the root class in an
//! intention mode, the root instance in S/X, and every component class
//! of the composite class hierarchy in the matching O/OS mode. So the
//! planner's job is root discovery: walk the reverse composite
//! references up from each touched object (through the transaction's
//! own overlay, so freshly attached parents count) and emit
//! [`composite_lockset`] for every root found. An object outside any
//! composite degenerates to the direct-access protocol (class IS/IX +
//! instance S/X) because its hierarchy walk finds no components.
//!
//! Planning runs under the engine's shared latch *before* any lock is
//! taken; the caller then acquires the set blocking and **re-plans until
//! a fixpoint** — between planning and granting, another transaction may
//! have committed a topology change that moves a target under a new
//! root. Once every planned lock is held, the held X/IXO locks prevent
//! further movement of the targets (any mover would need locks we hold).

use std::collections::HashSet;

use corion_core::{ClassId, Database, Object, Oid, Overlay};
use corion_lock::protocol::composite_lockset;
use corion_lock::{LockIntent, LockMode, Lockable};

/// One object an operation is about to touch, from the lock planner's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTarget {
    /// An existing object (read or mutated, directly or via cascade).
    Object(Oid),
    /// A new instance of `class` is about to be created.
    NewInstance(ClassId),
}

/// Read one object through the overlay-then-base view.
fn view_get(db: &Database, overlay: &Overlay, oid: Oid) -> Option<Object> {
    match overlay.lookup(oid) {
        Some(img) => img.cloned(),
        None => db.get(oid).ok(),
    }
}

/// The composite roots above `oid`: walk reverse composite references
/// transitively; objects with no composite parent are their own root.
/// Unreadable objects (already deleted) answer themselves so the caller
/// still serialises on the instance before discovering the deletion.
pub fn roots_of_view(db: &Database, overlay: &Overlay, oid: Oid) -> Vec<Oid> {
    let mut roots = Vec::new();
    let mut visited: HashSet<Oid> = HashSet::new();
    let mut queue = vec![oid];
    while let Some(o) = queue.pop() {
        if !visited.insert(o) {
            continue;
        }
        let parents = match view_get(db, overlay, o) {
            Some(obj) => obj.composite_parents(),
            None => Vec::new(),
        };
        if parents.is_empty() {
            roots.push(o);
        } else {
            queue.extend(parents);
        }
    }
    roots.sort();
    roots
}

/// The components reachable *down* from `oid` through composite
/// attributes, `oid` included. Used for cascading operations (`delete`),
/// whose effects can touch shared components that also belong to other
/// composite objects — each of those roots must be locked too.
pub fn subtree_of_view(db: &Database, overlay: &Overlay, oid: Oid) -> Vec<Oid> {
    let mut out = Vec::new();
    let mut visited: HashSet<Oid> = HashSet::new();
    let mut queue = vec![oid];
    while let Some(o) = queue.pop() {
        if !visited.insert(o) {
            continue;
        }
        out.push(o);
        let Some(obj) = view_get(db, overlay, o) else {
            continue;
        };
        let Ok(class) = db.class(o.class) else {
            continue;
        };
        for (def, value) in class.attrs.iter().zip(obj.attrs.iter()) {
            if def.composite.is_some() {
                queue.extend(value.refs());
            }
        }
    }
    out
}

/// Compute the full lock set for an operation touching `targets` with
/// `intent`. Root discovery runs per target; the result keeps the
/// §7 acquisition order (root class, root instance, component classes)
/// within each root and may contain duplicates — the caller dedups
/// against its held set.
pub fn plan(
    db: &Database,
    overlay: &Overlay,
    targets: &[OpTarget],
    intent: LockIntent,
) -> Vec<(Lockable, LockMode)> {
    let mut locks: Vec<(Lockable, LockMode)> = Vec::new();
    let mut planned_roots: HashSet<Oid> = HashSet::new();
    for target in targets {
        match target {
            OpTarget::Object(oid) => {
                for root in roots_of_view(db, overlay, *oid) {
                    if planned_roots.insert(root) {
                        locks.extend(composite_lockset(db, root, intent).locks);
                    }
                }
            }
            OpTarget::NewInstance(class) => {
                let mode = match intent {
                    LockIntent::Read => LockMode::IS,
                    _ => LockMode::IX,
                };
                locks.push((Lockable::Class(*class), mode));
            }
        }
    }
    locks
}

#[cfg(test)]
mod tests {
    use super::*;
    use corion_core::{ClassBuilder, CompositeSpec, Domain, Value};

    fn tree_db() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let part = db.define_class(ClassBuilder::new("Part")).unwrap();
        let asm = db
            .define_class(ClassBuilder::new("Asm").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        (db, part, asm)
    }

    #[test]
    fn component_targets_lock_from_the_root() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let child = db.make(part, vec![], vec![(root, "parts")]).unwrap();
        let _ = part;

        let ov = Overlay::new();
        let locks = plan(&db, &ov, &[OpTarget::Object(child)], LockIntent::Write);
        assert!(locks.contains(&(Lockable::Class(asm), LockMode::IX)));
        assert!(locks.contains(&(Lockable::Instance(root), LockMode::X)));
        assert!(!locks.contains(&(Lockable::Instance(child), LockMode::X)));
    }

    #[test]
    fn free_object_degenerates_to_direct_protocol() {
        let (mut db, part, _) = tree_db();
        let free = db.make(part, vec![], vec![]).unwrap();
        let ov = Overlay::new();
        let locks = plan(&db, &ov, &[OpTarget::Object(free)], LockIntent::Write);
        assert_eq!(locks[0], (Lockable::Class(part), LockMode::IX));
        assert_eq!(locks[1], (Lockable::Instance(free), LockMode::X));
    }

    #[test]
    fn overlay_attachment_is_visible_to_root_discovery() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let free = db.make(part, vec![], vec![]).unwrap();

        // Attach `free` under `root` inside an overlay only.
        let mut ov = Overlay::new();
        db.overlay_make_component(&mut ov, free, root, "parts")
            .unwrap();

        let roots = roots_of_view(&db, &ov, free);
        assert_eq!(roots, vec![root]);
        // Without the overlay the object is still its own root.
        assert_eq!(roots_of_view(&db, &Overlay::new(), free), vec![free]);
    }

    #[test]
    fn subtree_walks_forward_composite_refs() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let a = db.make(part, vec![], vec![(root, "parts")]).unwrap();
        let b = db.make(part, vec![], vec![(root, "parts")]).unwrap();
        let ov = Overlay::new();
        let mut sub = subtree_of_view(&db, &ov, root);
        sub.sort();
        let mut want = vec![root, a, b];
        want.sort();
        assert_eq!(sub, want);
        let _ = Value::Null;
    }
}
