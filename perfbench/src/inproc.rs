//! The in-process peels: the same operation streams through
//! `ConcurrentDb` (MVCC + §7 locks + commit latch) and through core
//! `Database` (single-threaded), on file-backed data directories.

use std::path::Path;

use corion::core::composite::Filter;
use corion::core::{
    ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbError, Domain, MakeSpec, Object,
    Oid, ParentRef, Value,
};
use corion::ConcurrentDb;

use crate::gen::{Cls, Obj, Op, Plan, Spec, N, PAYLOAD};
use crate::wire::{check, stream_spec, values_of, Ids, OpError};

impl From<DbError> for OpError {
    fn from(e: DbError) -> Self {
        OpError::Failed(e.to_string())
    }
}

fn failed(e: DbError) -> String {
    e.to_string()
}

/// The benchmark schema as core DDL.
pub fn define_schema(d: &mut Database) -> Result<[ClassId; 3], DbError> {
    let mut ids = [ClassId(0); 3];
    for c in Cls::ALL {
        let mut b = ClassBuilder::new(c.name()).attr(PAYLOAD, Domain::String);
        if c == Cls::Part {
            b = b.attr(N, Domain::Integer);
        }
        if let (Some(attr), Some(child)) = (c.child_attr(), c.child_class()) {
            b = b.attr_composite(
                attr,
                Domain::SetOf(Box::new(Domain::Class(ids[child.index()]))),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            );
        }
        ids[c.index()] = d.define_class(b)?;
    }
    Ok(ids)
}

fn make_specs(batch: &[Spec], ids: &Ids) -> Vec<MakeSpec> {
    let first = batch[0].id;
    batch
        .iter()
        .map(|s| MakeSpec {
            class: ids.class_id(s.class),
            values: values_of(s.class, &s.payload, s.n),
            parents: s
                .parent
                .map(|p| {
                    let attr = s.class.parent_attr();
                    let r = if p >= first {
                        ParentRef::Created(p - first)
                    } else {
                        ParentRef::Existing(ids.oid(p))
                    };
                    vec![(r, attr.to_string())]
                })
                .unwrap_or_default(),
        })
        .collect()
}

fn small_specs(asm: usize, parts: [usize; 3], ids: &Ids) -> Vec<MakeSpec> {
    let mut specs = vec![MakeSpec {
        class: ids.class_id(Cls::Asm),
        values: stream_spec(asm, Cls::Asm),
        parents: vec![],
    }];
    for p in parts {
        specs.push(MakeSpec {
            class: ids.class_id(Cls::Part),
            values: stream_spec(p, Cls::Part),
            parents: vec![(ParentRef::Created(0), "parts".into())],
        });
    }
    specs
}

fn bind_all(ids: &Ids, logical: &[usize], oids: &[Oid]) -> Result<(), OpError> {
    check(logical.len() == oids.len(), || {
        format!("{} OIDs for {} objects", oids.len(), logical.len())
    })?;
    for (&l, &o) in logical.iter().zip(oids) {
        ids.bind(l, o).map_err(OpError::Check)?;
    }
    Ok(())
}

fn refs(values: &[(String, Value)]) -> Vec<(&str, Value)> {
    values
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect()
}

fn check_payload(obj: &Object, want: &str) -> Result<(), OpError> {
    // `payload` is every class's first attribute.
    check(
        obj.attrs.first() == Some(&Value::Str(want.to_string())),
        || format!("{:?}: stale or wrong payload", obj.oid),
    )
}

fn sorted(mut v: Vec<Oid>) -> Vec<Oid> {
    v.sort();
    v
}

/// Opens a fresh file-backed engine on `dir`, defines the schema and
/// seeds the corpus.
pub fn open_seeded(dir: &Path, plan: &Plan) -> Result<(Database, Ids), String> {
    let mut db = Database::open(dir, DbConfig::default()).map_err(failed)?;
    let class_ids = define_schema(&mut db).map_err(failed)?;
    let ids = Ids::new(plan.classes(), class_ids);
    for batch in &plan.batches {
        let oids = db.make_many(&make_specs(batch, &ids)).map_err(failed)?;
        let logical: Vec<usize> = batch.iter().map(|s| s.id).collect();
        bind_all(&ids, &logical, &oids).map_err(|_| "seeding bound the wrong OIDs".to_string())?;
    }
    Ok((db, ids))
}

/// One operation through `ConcurrentDb`, checked against the model.
pub fn conc_op(cdb: &ConcurrentDb, ids: &Ids, op: &Op, model: &[Obj]) -> Result<(), OpError> {
    match op {
        Op::IngestTxn { root, asm, parts } => {
            let root = ids.oid(*root);
            let (asm_v, part_v): (Vec<_>, Vec<_>) = (
                stream_spec(*asm, Cls::Asm),
                parts.iter().map(|&p| stream_spec(p, Cls::Part)).collect(),
            );
            let made = cdb.run_write(|t| {
                let a = t.make(ids.class_id(Cls::Asm), refs(&asm_v), vec![(root, "subs")])?;
                let mut out = vec![a];
                for v in &part_v {
                    out.push(t.make(ids.class_id(Cls::Part), refs(v), vec![(a, "parts")])?);
                }
                Ok(out)
            })?;
            bind_all(ids, &[*asm, parts[0], parts[1], parts[2]], &made)
        }
        Op::Subtree { root, size, member } => {
            let snap = cdb.begin_read();
            let got = snap.subtree_of(ids.oid(*root))?;
            let m = ids.oid(*member);
            check(got.len() == *size && got.contains(&m), || {
                format!(
                    "subtree_of root {root}: {} members, expected {size}",
                    got.len()
                )
            })?;
            check_payload(&snap.get(m)?, &model[*member].payload)
        }
        Op::Get { o } => check_payload(&cdb.begin_read().get(ids.oid(*o))?, &model[*o].payload),
        Op::GetAttr { o } => {
            let v = cdb.begin_read().get_attr(ids.oid(*o), PAYLOAD)?;
            check(v == Value::Str(model[*o].payload.clone()), || {
                format!("get_attr {o}: read-your-writes violated")
            })
        }
        Op::ComponentsOf { o, expect } => {
            let got = sorted(cdb.begin_read().components_of(ids.oid(*o))?);
            check(got == ids.expect_set(expect), || {
                format!("components_of {o}: {got:?}")
            })
        }
        Op::ParentsOf { o, expect } => {
            let got = cdb.begin_read().parents_of(ids.oid(*o))?;
            check(got == vec![ids.oid(*expect)], || {
                format!("parents_of {o}: {got:?}")
            })
        }
        Op::SetAttr { o, value } => {
            let oid = ids.oid(*o);
            Ok(cdb.run_write(|t| t.set_attr(oid, PAYLOAD, Value::Str(value.clone())))?)
        }
        Op::MakeSmall { asm, parts } => {
            let specs = small_specs(*asm, *parts, ids);
            let oids = cdb.with_exclusive(|d| d.make_many(&specs))?;
            bind_all(ids, &[*asm, parts[0], parts[1], parts[2]], &oids)
        }
        Op::Delete { asm, parts } => {
            let oid = ids.oid(*asm);
            let gone = sorted(cdb.run_write(|t| t.delete(oid))?);
            check(
                gone == ids.expect_set(&[*asm, parts[0], parts[1], parts[2]]),
                || format!("delete {asm}: cascade {gone:?}"),
            )
        }
        Op::DurableTxn { a, b, va, vb } => {
            let (oa, ob) = (ids.oid(*a), ids.oid(*b));
            Ok(cdb.run_write(|t| {
                t.set_attr(oa, N, Value::Int(*va))?;
                t.set_attr(ob, N, Value::Int(*vb))
            })?)
        }
    }
}

/// One operation through core `Database`, checked against the model.
pub fn core_op(db: &mut Database, ids: &Ids, op: &Op, model: &[Obj]) -> Result<(), OpError> {
    match op {
        Op::IngestTxn { root, asm, parts } => {
            let root = ids.oid(*root);
            let made = db.transaction(|d| {
                let a = d.make(
                    ids.class_id(Cls::Asm),
                    refs(&stream_spec(*asm, Cls::Asm)),
                    vec![(root, "subs")],
                )?;
                let mut out = vec![a];
                for &p in parts {
                    out.push(d.make(
                        ids.class_id(Cls::Part),
                        refs(&stream_spec(p, Cls::Part)),
                        vec![(a, "parts")],
                    )?);
                }
                Ok(out)
            })?;
            bind_all(ids, &[*asm, parts[0], parts[1], parts[2]], &made)
        }
        Op::Subtree { root, size, member } => {
            let (r, m) = (ids.oid(*root), ids.oid(*member));
            let below = db.components_of(r, &Filter::all())?;
            check(
                below.len() + 1 == *size && (m == r || below.contains(&m)),
                || {
                    format!(
                        "components_of root {root}: {} members, expected {size}",
                        below.len() + 1
                    )
                },
            )?;
            check_payload(&db.get(m)?, &model[*member].payload)
        }
        Op::Get { o } => check_payload(&db.get(ids.oid(*o))?, &model[*o].payload),
        Op::GetAttr { o } => {
            let v = db.get_attr(ids.oid(*o), PAYLOAD)?;
            check(v == Value::Str(model[*o].payload.clone()), || {
                format!("get_attr {o}: read-your-writes violated")
            })
        }
        Op::ComponentsOf { o, expect } => {
            let direct = Filter {
                level: Some(1),
                ..Filter::all()
            };
            let got = sorted(db.components_of(ids.oid(*o), &direct)?);
            check(got == ids.expect_set(expect), || {
                format!("components_of {o}: {got:?}")
            })
        }
        Op::ParentsOf { o, expect } => {
            let got = db.parents_of(ids.oid(*o), &Filter::all())?;
            check(got == vec![ids.oid(*expect)], || {
                format!("parents_of {o}: {got:?}")
            })
        }
        Op::SetAttr { o, value } => {
            Ok(db.set_attr(ids.oid(*o), PAYLOAD, Value::Str(value.clone()))?)
        }
        Op::MakeSmall { asm, parts } => {
            let oids = db.make_many(&small_specs(*asm, *parts, ids))?;
            bind_all(ids, &[*asm, parts[0], parts[1], parts[2]], &oids)
        }
        Op::Delete { asm, parts } => {
            let gone = sorted(db.delete(ids.oid(*asm))?);
            check(
                gone == ids.expect_set(&[*asm, parts[0], parts[1], parts[2]]),
                || format!("delete {asm}: cascade {gone:?}"),
            )
        }
        Op::DurableTxn { a, b, va, vb } => {
            let (oa, ob) = (ids.oid(*a), ids.oid(*b));
            Ok(db.transaction(|d| {
                d.set_attr(oa, N, Value::Int(*va))?;
                d.set_attr(ob, N, Value::Int(*vb))
            })?)
        }
    }
}
