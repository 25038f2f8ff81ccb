//! Engine-level concurrency tests: genuine writer overlap on disjoint
//! composites, snapshot isolation, strict 2PL conflict behaviour, and
//! recovery fencing.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

use corion_concurrent::{ConcurrentDb, Snapshot, WriteTxn};
use corion_core::{ClassBuilder, ClassId, CompositeSpec, DbError, DbResult, Domain, Oid, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Assembly --exclusive/dependent--> set-of Part, plus a string on each.
fn setup(cdb: &ConcurrentDb) -> (ClassId, ClassId) {
    cdb.with_exclusive(|db| {
        let part = db
            .define_class(ClassBuilder::new("Part").attr("tag", Domain::String))
            .unwrap();
        let asm = db
            .define_class(
                ClassBuilder::new("Asm")
                    .attr("label", Domain::String)
                    .attr_composite(
                        "parts",
                        Domain::SetOf(Box::new(Domain::Class(part))),
                        CompositeSpec {
                            exclusive: true,
                            dependent: true,
                        },
                    ),
            )
            .unwrap();
        (part, asm)
    })
}

fn mk_root(cdb: &ConcurrentDb, asm: ClassId, label: &str) -> Oid {
    cdb.run_write(|t| t.make(asm, vec![("label", Value::Str(label.into()))], vec![]))
        .unwrap()
}

#[test]
fn disjoint_composite_writers_overlap_in_time() {
    // Acceptance criterion: two writer threads on disjoint composites
    // commit concurrently — no serialization through a single `&mut`.
    // Txn A opens, writes, and *stays open* while txn B runs an entire
    // transaction (ops + commit) to completion on another thread.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root_a = mk_root(&cdb, asm, "A");
    let root_b = mk_root(&cdb, asm, "B");

    let mut txn_a = cdb.begin_write();
    txn_a
        .make(
            part,
            vec![("tag", Value::Str("a1".into()))],
            vec![(root_a, "parts")],
        )
        .unwrap();

    // While A is open (holding X on root_a and IXO on Part), B must be
    // able to run start-to-finish on root_b.
    let cdb2 = cdb.clone();
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let r = cdb2.run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("b1".into()))],
                vec![(root_b, "parts")],
            )
        });
        tx.send(()).unwrap();
        r.unwrap()
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("writer B must not block behind open writer A on a disjoint composite");
    let b_part = handle.join().unwrap();

    txn_a.commit().unwrap();
    cdb.with_read(|db| {
        assert!(db.exists(b_part));
        assert_eq!(db.components_of_snapshot_free(root_a).len(), 1);
    });
}

#[test]
fn an_open_in_transaction_view_does_not_block_other_writers() {
    // A view reads the engine and the transaction's overlay under the
    // shared operation latch, so while it runs a writer on a disjoint
    // composite can still execute; it commits once the view returns.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root_a = mk_root(&cdb, asm, "A");
    let root_b = mk_root(&cdb, asm, "B");

    let mut txn_a = cdb.begin_write();
    let a_part = txn_a
        .make(
            part,
            vec![("tag", Value::Str("a1".into()))],
            vec![(root_a, "parts")],
        )
        .unwrap();

    let cdb2 = cdb.clone();
    let (made_tx, made_rx) = mpsc::channel();
    let (commit_tx, commit_rx) = mpsc::channel::<()>();
    let (seen, handle, made_during_view) = txn_a
        .with_view(&[root_a], |db, ov| {
            let handle = thread::spawn(move || {
                let mut txn_b = cdb2.begin_write();
                let b_part = txn_b
                    .make(
                        part,
                        vec![("tag", Value::Str("b1".into()))],
                        vec![(root_b, "parts")],
                    )
                    .unwrap();
                made_tx.send(()).unwrap();
                commit_rx.recv().unwrap();
                txn_b.commit().unwrap();
                b_part
            });
            let made = made_rx.recv_timeout(Duration::from_secs(5)).is_ok();
            let seen = db.overlay_get(ov, root_a)?.attrs[1].refs();
            Ok((seen, handle, made))
        })
        .unwrap();
    commit_tx.send(()).unwrap();
    let b_part = handle.join().unwrap();
    assert!(
        made_during_view,
        "writer B must not block behind an open in-transaction view"
    );
    assert_eq!(seen, vec![a_part], "the view sees A's own uncommitted part");

    txn_a.commit().unwrap();
    cdb.with_read(|db| {
        assert!(db.exists(a_part));
        assert!(db.exists(b_part));
    });
}

/// Helper used by the test above via `with_read`.
trait ComponentsFree {
    fn components_of_snapshot_free(&self, root: Oid) -> Vec<Oid>;
}
impl ComponentsFree for corion_core::Database {
    fn components_of_snapshot_free(&self, root: Oid) -> Vec<Oid> {
        self.get(root)
            .map(|o| o.attrs.iter().flat_map(|v| v.refs()).collect::<Vec<_>>())
            .unwrap_or_default()
    }
}

#[test]
fn same_root_writers_serialize() {
    // Two transactions on the SAME root conflict at the root instance
    // (X vs X): the second blocks until the first commits.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let mut txn_a = cdb.begin_write();
    txn_a.make(part, vec![], vec![(root, "parts")]).unwrap();

    let started = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicBool::new(false));
    let cdb2 = cdb.clone();
    let (s2, f2) = (Arc::clone(&started), Arc::clone(&finished));
    let handle = thread::spawn(move || {
        s2.store(true, Ordering::SeqCst);
        cdb2.run_write(|t| t.make(part, vec![], vec![(root, "parts")]))
            .unwrap();
        f2.store(true, Ordering::SeqCst);
    });

    while !started.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    thread::sleep(Duration::from_millis(100));
    assert!(
        !finished.load(Ordering::SeqCst),
        "same-root writer must block until the first commits"
    );
    txn_a.commit().unwrap();
    handle.join().unwrap();
    assert!(finished.load(Ordering::SeqCst));
    cdb.with_read(|db| {
        let root_obj = db.get(root).unwrap();
        let n: usize = root_obj.attrs.iter().map(|v| v.refs().len()).sum();
        assert_eq!(n, 2);
    });
}

#[test]
fn snapshots_are_stable_and_never_see_partial_state() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let p0 = cdb
        .run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("v0".into()))],
                vec![(root, "parts")],
            )
        })
        .unwrap();

    let snap = cdb.begin_read();
    assert_eq!(snap.get_attr(p0, "tag").unwrap(), Value::Str("v0".into()));

    // A multi-op transaction mutates tag AND adds a sibling.
    cdb.run_write(|t| {
        t.set_attr(p0, "tag", Value::Str("v1".into()))?;
        t.make(
            part,
            vec![("tag", Value::Str("new".into()))],
            vec![(root, "parts")],
        )
    })
    .unwrap();

    // The pinned snapshot still sees the old world, completely.
    assert_eq!(snap.get_attr(p0, "tag").unwrap(), Value::Str("v0".into()));
    assert_eq!(snap.components_of(root).unwrap().len(), 1);
    // A fresh snapshot sees the new world, completely.
    let now = cdb.begin_read();
    assert_eq!(now.get_attr(p0, "tag").unwrap(), Value::Str("v1".into()));
    assert_eq!(now.components_of(root).unwrap().len(), 2);
    assert!(now.lsn() > snap.lsn());
}

#[test]
fn snapshot_reads_do_not_block_on_an_open_writer() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let p = cdb
        .run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("x".into()))],
                vec![(root, "parts")],
            )
        })
        .unwrap();

    let snap = cdb.begin_read();
    // Writer holds X on root + IXO on Part and stays open.
    let mut txn = cdb.begin_write();
    txn.set_attr(p, "tag", Value::Str("y".into())).unwrap();

    // Snapshot reads of the same objects complete immediately (they
    // take no lock-manager locks).
    let (tx, rx) = mpsc::channel();
    let cdb2 = cdb.clone();
    let handle = thread::spawn(move || {
        let snap2 = cdb2.begin_read();
        let v = snap2.get_attr(p, "tag").unwrap();
        tx.send(v).unwrap();
    });
    let v = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("snapshot read must not block behind an open writer");
    assert_eq!(v, Value::Str("x".into()));
    handle.join().unwrap();
    assert_eq!(snap.get_attr(p, "tag").unwrap(), Value::Str("x".into()));
    txn.abort();
}

#[test]
fn aborted_transactions_leave_no_trace() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let mut txn = cdb.begin_write();
    let ghost = txn.make(part, vec![], vec![(root, "parts")]).unwrap();
    txn.abort();

    cdb.with_read(|db| assert!(!db.exists(ghost)));
    let snap = cdb.begin_read();
    assert!(!snap.exists(ghost).unwrap());
    assert_eq!(snap.components_of(root).unwrap().len(), 0);
}

#[test]
fn recover_fences_live_snapshots_and_transactions() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let snap = cdb.begin_read();
    let mut txn = cdb.begin_write();
    txn.make(part, vec![], vec![(root, "parts")]).unwrap();

    cdb.recover().unwrap();

    assert!(matches!(
        snap.get(root),
        Err(DbError::TransactionState { .. })
    ));
    assert!(matches!(
        txn.make(part, vec![], vec![(root, "parts")]),
        Err(DbError::TransactionState { .. })
    ));
    // New work proceeds normally.
    cdb.run_write(|t| t.make(part, vec![], vec![(root, "parts")]))
        .unwrap();
}

#[test]
fn mvcc_and_txn_metrics_are_recorded() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let snap = cdb.begin_read();
    cdb.run_write(|t| t.make(part, vec![], vec![(root, "parts")]))
        .unwrap();
    drop(snap);

    let m = cdb.metrics_snapshot();
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert!(counter("corion_mvcc_txn_commits_total") >= 2);
    assert!(counter("corion_mvcc_versions_published_total") >= 1);
    assert!(counter("corion_mvcc_snapshots_total") >= 1);
    assert!(counter("corion_lock_acquires_total") >= 1);
}

#[test]
fn vacuum_reclaims_unpinned_versions() {
    let cdb = ConcurrentDb::new();
    let (_, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    for i in 0..10 {
        cdb.run_write(|t| t.set_attr(root, "label", Value::Str(format!("v{i}"))))
            .unwrap();
    }
    let reclaimed = cdb.vacuum();
    assert!(reclaimed > 0, "unpinned version chains must be reclaimed");
    // After vacuum with no pins, reads still answer from the base.
    let snap = cdb.begin_read();
    assert_eq!(
        snap.get_attr(root, "label").unwrap(),
        Value::Str("v9".into())
    );
}

#[test]
fn barrier_stress_smoke_disjoint_roots() {
    // 4 threads, each owning its own root, hammering concurrently.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let roots: Vec<Oid> = (0..4)
        .map(|i| mk_root(&cdb, asm, &format!("R{i}")))
        .collect();
    let barrier = Arc::new(Barrier::new(roots.len()));

    let handles: Vec<_> = roots
        .iter()
        .map(|&root| {
            let cdb = cdb.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..20 {
                    cdb.run_write(|t| {
                        let p = t.make(
                            part,
                            vec![("tag", Value::Str(format!("p{i}")))],
                            vec![(root, "parts")],
                        )?;
                        t.set_attr(p, "tag", Value::Str(format!("p{i}')")))
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    cdb.with_read(|db| {
        for &root in &roots {
            let n: usize = db
                .get(root)
                .unwrap()
                .attrs
                .iter()
                .map(|v| v.refs().len())
                .sum();
            assert_eq!(n, 20);
        }
    });
}

// ---------------------------------------------------------------------
// Snapshot traversals
// ---------------------------------------------------------------------

/// The per-node snapshot walk `Snapshot::subtree_of` used to run: one
/// `exists` and one `components_of` per node, never the traversal cache.
/// The oracle the cached walk is compared against.
fn subtree_by_node(snap: &Snapshot, oid: Oid) -> Vec<Oid> {
    let mut seen = HashSet::new();
    let mut queue = vec![oid];
    let mut out = Vec::new();
    while let Some(o) = queue.pop() {
        if !seen.insert(o) || !snap.exists(o).unwrap() {
            continue;
        }
        out.push(o);
        queue.extend(snap.components_of(o).unwrap());
    }
    out
}

/// The per-node ancestor walk, `None` when `oid` is not visible.
fn ancestors_by_node(snap: &Snapshot, oid: Oid) -> Option<Vec<Oid>> {
    let mut seen = HashSet::new();
    let mut queue = snap.parents_of(oid).ok()?;
    let mut out = Vec::new();
    while let Some(p) = queue.pop() {
        if !seen.insert(p) {
            continue;
        }
        out.push(p);
        if let Ok(obj) = snap.get(p) {
            queue.extend(obj.composite_parents());
        }
    }
    out.sort();
    Some(out)
}

type Answers = Vec<(Vec<Oid>, Option<Vec<Oid>>)>;

/// `subtree_of` and `ancestors_of` of every object in `objs`, each
/// checked against the per-node oracle. Walks twice, so the second walk
/// runs on whatever the first left in the traversal cache.
fn answers(snap: &Snapshot, objs: &[Oid]) -> Answers {
    let walk = || -> Answers {
        objs.iter()
            .map(|&o| (snap.subtree_of(o).unwrap(), snap.ancestors_of(o).ok()))
            .collect()
    };
    let got = walk();
    assert_eq!(got, walk(), "a warm walk must answer like a cold one");
    let oracle: Answers = objs
        .iter()
        .map(|&o| (subtree_by_node(snap, o), ancestors_by_node(snap, o)))
        .collect();
    assert_eq!(got, oracle, "snapshot at lsn {}", snap.lsn());
    got
}

/// Root --subs--> set-of Asm --parts--> set-of Part, all exclusive and
/// dependent: a three-level composite so ancestor walks have depth.
struct Tree {
    part: ClassId,
    asm: ClassId,
    root: Oid,
    asms: Vec<Oid>,
    parts: Vec<Oid>,
}

impl Tree {
    fn all(&self) -> Vec<Oid> {
        let mut v = vec![self.root];
        v.extend(&self.asms);
        v.extend(&self.parts);
        v
    }
}

fn root_class(cdb: &ConcurrentDb, asm: ClassId) -> ClassId {
    cdb.with_exclusive(|db| {
        db.define_class(ClassBuilder::new("Root").attr_composite(
            "subs",
            Domain::SetOf(Box::new(Domain::Class(asm))),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap()
    })
}

/// One root with two Asms of two Parts each; chains vacuumed away, so
/// every node resolves to the base.
fn tree(cdb: &ConcurrentDb) -> Tree {
    let (part, asm) = setup(cdb);
    let root_cls = root_class(cdb, asm);
    let root = cdb.run_write(|t| t.make(root_cls, vec![], vec![])).unwrap();
    let mut t = Tree {
        part,
        asm,
        root,
        asms: Vec::new(),
        parts: Vec::new(),
    };
    for _ in 0..2 {
        let a = cdb
            .run_write(|w| w.make(asm, vec![], vec![(root, "subs")]))
            .unwrap();
        t.asms.push(a);
        for _ in 0..2 {
            let p = cdb
                .run_write(|w| w.make(part, vec![], vec![(a, "parts")]))
                .unwrap();
            t.parts.push(p);
        }
    }
    cdb.vacuum();
    t
}

/// Pin a snapshot over a warm cache, commit `change`, and check that
/// the pinned snapshot keeps every answer while fresh snapshots — first
/// over the new chains, then, after a vacuum, over the base and the
/// cache — agree with the per-node oracle. Returns the pinned answers,
/// the fresh answers and the objects `change` returned.
fn across_commit(
    cdb: &ConcurrentDb,
    objs: &[Oid],
    change: impl FnMut(&mut WriteTxn) -> DbResult<Vec<Oid>>,
) -> (Answers, Answers, Vec<Oid>) {
    answers(&cdb.begin_read(), objs); // warms the traversal cache
    let pinned = cdb.begin_read();
    let before = answers(&pinned, objs);
    let made = cdb.run_write(change).unwrap();
    let mut all = objs.to_vec();
    all.extend(&made);
    let old = answers(&pinned, &all);
    assert_eq!(old[..objs.len()], before[..], "the pinned snapshot moved");
    for (sub, anc) in &old[objs.len()..] {
        assert!(sub.is_empty() && anc.is_none(), "unborn at the pin");
    }
    let fresh = answers(&cdb.begin_read(), &all);
    assert_ne!(fresh, old, "the commit must change the tree");
    drop(pinned);
    assert!(cdb.vacuum() > 0, "the commit's chains are reclaimable");
    assert_eq!(answers(&cdb.begin_read(), &all), fresh);
    (old, fresh, made)
}

#[test]
fn pinned_snapshot_traversals_survive_an_added_part() {
    let cdb = ConcurrentDb::new();
    let t = tree(&cdb);
    let a0 = t.asms[0];
    let (_, fresh, made) = across_commit(&cdb, &t.all(), |w| {
        Ok(vec![w.make(t.part, vec![], vec![(a0, "parts")])?])
    });
    let p = made[0];
    let all = [t.all(), made.clone()].concat();
    let at = |o: Oid| &fresh[all.iter().position(|&x| x == o).unwrap()];
    assert!(at(t.root).0.contains(&p));
    assert!(at(a0).0.contains(&p));
    assert_eq!(at(p).1, Some(sorted(vec![t.root, a0])));
}

#[test]
fn pinned_snapshot_traversals_survive_a_deleted_member() {
    let cdb = ConcurrentDb::new();
    let t = tree(&cdb);
    let gone = t.parts[0];
    let (old, fresh, _) = across_commit(&cdb, &t.all(), |w| {
        w.delete(gone)?;
        Ok(vec![])
    });
    let i = t.all().iter().position(|&x| x == gone).unwrap();
    assert_eq!(old[i].0, vec![gone]);
    assert_eq!(fresh[i], (vec![], None));
    assert!(!fresh[0].0.contains(&gone));
}

#[test]
fn pinned_snapshot_traversals_survive_a_new_asm() {
    let cdb = ConcurrentDb::new();
    let t = tree(&cdb);
    let root = t.root;
    let (_, fresh, made) = across_commit(&cdb, &t.all(), |w| {
        let a = w.make(t.asm, vec![], vec![(root, "subs")])?;
        let p = w.make(t.part, vec![], vec![(a, "parts")])?;
        Ok(vec![a, p])
    });
    let n = t.all().len();
    assert!(made.iter().all(|o| fresh[0].0.contains(o)));
    assert_eq!(fresh[n].0, made);
    assert_eq!(fresh[n + 1].1, Some(sorted(vec![root, made[0]])));
}

fn sorted(mut v: Vec<Oid>) -> Vec<Oid> {
    v.sort();
    v
}

#[cfg(feature = "obs")]
#[test]
fn repeated_subtree_walks_hit_the_traversal_cache() {
    let cdb = ConcurrentDb::new();
    let t = tree(&cdb);
    let hits = || {
        cdb.metrics_snapshot()
            .counter("corion_traversal_cache_hits_total")
    };
    let snap = cdb.begin_read();
    let first = snap.subtree_of(t.root).unwrap();
    let before = hits();
    assert_eq!(snap.subtree_of(t.root).unwrap(), first);
    assert_eq!(hits() - before, first.len() as u64);
}

/// Seeded random commits (adds, cascading deletes, detaches, relabels)
/// with snapshots pinned and released along the way: every pinned
/// snapshot keeps its answers, and every snapshot's cached walks agree
/// with the per-node oracle.
#[test]
fn snapshot_traversals_match_the_per_node_walk_under_random_commits() {
    let cdb = ConcurrentDb::new();
    let t = tree(&cdb);
    let mut rng = StdRng::seed_from_u64(0x5ca1ab1e);
    let mut objs = t.all();
    let mut pinned: Vec<(Snapshot, Answers, usize)> = Vec::new();
    let live = |cls: ClassId, objs: &[Oid]| -> Vec<Oid> {
        let snap = cdb.begin_read();
        objs.iter()
            .copied()
            .filter(|&o| o.class == cls && snap.exists(o).unwrap())
            .collect()
    };
    for step in 0..150 {
        let asms = live(t.asm, &objs);
        let parts = live(t.part, &objs);
        let pick = |v: &[Oid], rng: &mut StdRng| v[rng.gen_range(0..v.len())];
        match rng.gen_range(0..6) {
            0 | 1 if !asms.is_empty() => {
                let a = pick(&asms, &mut rng);
                objs.push(
                    cdb.run_write(|w| w.make(t.part, vec![], vec![(a, "parts")]))
                        .unwrap(),
                );
            }
            2 => {
                let a = cdb
                    .run_write(|w| w.make(t.asm, vec![], vec![(t.root, "subs")]))
                    .unwrap();
                objs.push(a);
            }
            3 if !parts.is_empty() => {
                let p = pick(&parts, &mut rng);
                cdb.run_write(|w| w.delete(p)).unwrap();
            }
            4 if asms.len() > 1 => {
                let a = pick(&asms, &mut rng);
                cdb.run_write(|w| w.delete(a)).unwrap();
            }
            5 if !parts.is_empty() => {
                // Detaching a dependent Part orphans it: the orphan
                // policy deletes it along with the parent's edge.
                let p = pick(&parts, &mut rng);
                let from = cdb.begin_read().parents_of(p).unwrap()[0];
                cdb.run_write(|w| w.remove_component(p, from, "parts"))
                    .unwrap();
            }
            _ => {
                if let Some(&a) = asms.first() {
                    let label = Value::Str(format!("s{step}"));
                    cdb.run_write(|w| w.set_attr(a, "label", label.clone()))
                        .unwrap();
                }
            }
        }
        if rng.gen_bool(0.3) {
            let snap = cdb.begin_read();
            let ans = answers(&snap, &objs);
            pinned.push((snap, ans, objs.len()));
        }
        if !pinned.is_empty() && rng.gen_bool(0.15) {
            pinned.remove(rng.gen_range(0..pinned.len()));
        }
        if rng.gen_bool(0.1) {
            cdb.vacuum();
        }
        if step % 10 == 9 {
            answers(&cdb.begin_read(), &objs);
            for (snap, ans, n) in &pinned {
                assert_eq!(&answers(snap, &objs[..*n]), ans, "pinned snapshot moved");
                answers(snap, &objs);
            }
        }
    }
    pinned.clear();
    cdb.vacuum();
    answers(&cdb.begin_read(), &objs);
}
