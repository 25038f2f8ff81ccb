//! Seeded generation of every workload: the schema, the set-up corpus,
//! one operation stream per client, and the model of the state each
//! acknowledged operation leaves behind.
//!
//! Objects are named by *logical* ids (indices into [`Plan::model`]); each
//! backend maps them to the OIDs it hands out, so the same stream replays
//! over the wire, through `ConcurrentDb` and through core `Database`.

use std::collections::HashMap;

/// Composite fan-out at which an ingest client moves on to its next root.
pub const INGEST_FANOUT: usize = 1600;
/// The buffer pool's bytes at the engine defaults: 256 frames of 4 KiB.
pub const POOL_BYTES: u64 = 256 * 4096;

/// Attribute names of the benchmark schema.
pub const PAYLOAD: &str = "payload";
pub const N: &str = "n";

/// The three classes of the benchmark schema: `Root` ⊃ `Asm` ⊃ `Part`
/// through exclusive dependent composite attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cls {
    Part,
    Asm,
    Root,
}

impl Cls {
    pub const ALL: [Cls; 3] = [Cls::Part, Cls::Asm, Cls::Root];

    pub fn name(self) -> &'static str {
        match self {
            Cls::Part => "Part",
            Cls::Asm => "Asm",
            Cls::Root => "Root",
        }
    }

    /// The composite attribute holding this class's components.
    pub fn child_attr(self) -> Option<&'static str> {
        match self {
            Cls::Part => None,
            Cls::Asm => Some("parts"),
            Cls::Root => Some("subs"),
        }
    }

    /// The composite attribute of the parent that holds an object of this
    /// class (Parts hang off Asms, Asms off Roots; Roots have no parent).
    pub fn parent_attr(self) -> &'static str {
        match self {
            Cls::Part => "parts",
            Cls::Asm | Cls::Root => "subs",
        }
    }

    /// The class parented by this one's composite attribute.
    pub fn child_class(self) -> Option<Cls> {
        match self {
            Cls::Part => None,
            Cls::Asm => Some(Cls::Part),
            Cls::Root => Some(Cls::Asm),
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CompositeIngest,
    SubtreeRead,
    PointMix,
    DurableCommit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CompositeIngest,
        Workload::SubtreeRead,
        Workload::PointMix,
        Workload::DurableCommit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompositeIngest => "composite_ingest",
            Workload::SubtreeRead => "subtree_read",
            Workload::PointMix => "point_mix",
            Workload::DurableCommit => "durable_commit",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Request clients (the point-mix subscriber comes on top).
    pub fn clients(self) -> usize {
        match self {
            Workload::PointMix => 1,
            _ => 2,
        }
    }

    /// Operations per client for a run of `seconds`: a fixed count, so two
    /// builds of the program do identical logical work. The rates are
    /// typical per-client operation rates measured on a 2-core VM, so the
    /// timed phase lasts about `seconds` there; the host's load moved them
    /// by up to 1.5x (`subtree_read`, `point_mix`) and, on the shared
    /// disk, 2-3x (`composite_ingest`, `durable_commit`) over a day.
    pub fn ops_per_client(self, seconds: f64) -> usize {
        let per_client_rate = match self {
            Workload::CompositeIngest => 350.0,
            Workload::SubtreeRead => 4500.0,
            Workload::PointMix => 9000.0,
            Workload::DurableCommit => 1000.0,
        };
        let ops = (per_client_rate * seconds).round().max(1.0) as usize;
        match self {
            // Whole roots only: every root grows to the same fan-out.
            Workload::CompositeIngest => {
                ((ops + INGEST_FANOUT / 2) / INGEST_FANOUT).max(1) * INGEST_FANOUT
            }
            _ => ops,
        }
    }
}

/// One object of a set-up `MakeMany` batch.
#[derive(Clone, Debug)]
pub struct Spec {
    pub id: usize,
    pub class: Cls,
    pub payload: String,
    pub n: Option<i64>,
    pub parent: Option<usize>,
}

/// One workload operation: one transaction, one traversal, or one mix
/// request. Every read carries the answer the model expects.
#[derive(Clone, Debug)]
pub enum Op {
    /// `Begin` → `make` Asm `:parent` root → 3 × `make` Part `:parent`
    /// the Asm → `Commit`.
    IngestTxn {
        root: usize,
        asm: usize,
        parts: [usize; 3],
    },
    /// `SubtreeOf(root)` (expecting `size` members), then `Get(member)`.
    Subtree {
        root: usize,
        size: usize,
        member: usize,
    },
    Get {
        o: usize,
    },
    GetAttr {
        o: usize,
    },
    ComponentsOf {
        o: usize,
        expect: Vec<usize>,
    },
    ParentsOf {
        o: usize,
        expect: usize,
    },
    /// Autocommit `SetAttr(o, payload, value)`.
    SetAttr {
        o: usize,
        value: String,
    },
    /// Autocommit `MakeMany` of one Asm and its three Parts.
    MakeSmall {
        asm: usize,
        parts: [usize; 3],
    },
    /// Autocommit cascading `Delete(asm)`; expects exactly the Asm and
    /// its three Parts back.
    Delete {
        asm: usize,
        parts: [usize; 3],
    },
    /// `Begin` → `SetAttr(a, n)` → `SetAttr(b, n)` → `Commit`.
    DurableTxn {
        a: usize,
        b: usize,
        va: i64,
        vb: i64,
    },
}

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::IngestTxn { .. } => "ingest_txn",
            Op::Subtree { .. } => "subtree",
            Op::Get { .. } => "get",
            Op::GetAttr { .. } => "get_attr",
            Op::ComponentsOf { .. } => "components_of",
            Op::ParentsOf { .. } => "parents_of",
            Op::SetAttr { .. } => "set_attr",
            Op::MakeSmall { .. } => "make_many",
            Op::Delete { .. } => "delete",
            Op::DurableTxn { .. } => "durable_txn",
        }
    }

    /// True for operations that commit.
    pub fn commits(&self) -> bool {
        matches!(
            self,
            Op::IngestTxn { .. }
                | Op::SetAttr { .. }
                | Op::MakeSmall { .. }
                | Op::Delete { .. }
                | Op::DurableTxn { .. }
        )
    }
}

/// The modelled state of one logical object.
#[derive(Clone, Debug)]
pub struct Obj {
    pub class: Cls,
    pub payload: String,
    pub n: Option<i64>,
    pub children: Vec<usize>,
    pub live: bool,
    /// Written by an operation of the timed phase.
    pub touched: bool,
}

impl Obj {
    /// Bytes of live user attribute values: string bytes plus 8 per
    /// integer.
    pub fn user_bytes(&self) -> u64 {
        self.payload.len() as u64 + if self.n.is_some() { 8 } else { 0 }
    }
}

/// Everything one run does, generated from the seed before the server
/// sees a request.
pub struct Plan {
    pub workload: Workload,
    /// Set-up corpus, one `MakeMany` per batch, parents before children.
    pub batches: Vec<Vec<Spec>>,
    /// One operation stream per request client.
    pub streams: Vec<Vec<Op>>,
    /// The state after set-up.
    pub initial: Vec<Obj>,
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, ops_per_client: usize) -> Plan {
        let mut g = Gen {
            rng: Rng::new(seed ^ (workload as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            model: Vec::new(),
            batches: Vec::new(),
        };
        let streams = match workload {
            Workload::CompositeIngest => g.composite_ingest(ops_per_client),
            Workload::SubtreeRead => g.subtree_read(ops_per_client),
            Workload::PointMix => g.point_mix(ops_per_client),
            Workload::DurableCommit => g.durable_commit(ops_per_client),
        };
        Plan {
            workload,
            batches: g.batches,
            streams,
            initial: g.model,
        }
    }

    /// Classes of every logical id the plan uses (set-up and streams).
    pub fn classes(&self) -> Vec<Cls> {
        let mut out: Vec<Cls> = self.initial.iter().map(|o| o.class).collect();
        let mut model = self.initial.clone();
        for stream in &self.streams {
            for op in stream {
                apply(&mut model, op);
            }
        }
        out.extend(model[out.len()..].iter().map(|o| o.class));
        out
    }

    /// The state after set-up plus every operation marked acknowledged.
    pub fn expected(&self, acked: &[Vec<bool>]) -> Vec<Obj> {
        let mut model = self.initial.clone();
        for (stream, acks) in self.streams.iter().zip(acked) {
            for (op, &ok) in stream.iter().zip(acks) {
                if ok {
                    apply(&mut model, op);
                } else {
                    reserve(&mut model, op);
                }
            }
        }
        model
    }

    /// User bytes of the set-up corpus.
    pub fn corpus_user_bytes(&self) -> u64 {
        self.initial
            .iter()
            .filter(|o| o.live)
            .map(Obj::user_bytes)
            .sum()
    }

    /// Operations across all streams.
    pub fn total_ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// Deterministic payload of an object created by a stream operation.
pub fn payload_of(id: usize, len: usize) -> String {
    let mut s = String::with_capacity(len);
    let mut x = (id as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    while s.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.push((b'a' + (x % 26) as u8) as char);
    }
    s
}

/// Payload length and `n` of a stream-created object: derived from its
/// id so every backend and the model agree without shipping values.
pub fn stream_values(id: usize, class: Cls) -> (String, Option<i64>) {
    let len = 24 + (id * 7919) % 49;
    let n = (class == Cls::Part).then_some((id as i64 * 31) % 1000);
    (payload_of(id, len), n)
}

fn ensure(model: &mut Vec<Obj>, id: usize, class: Cls) {
    while model.len() <= id {
        model.push(Obj {
            class,
            payload: String::new(),
            n: None,
            children: Vec::new(),
            live: false,
            touched: false,
        });
    }
}

fn create(model: &mut Vec<Obj>, id: usize, class: Cls, parent: Option<usize>) {
    ensure(model, id, class);
    let (payload, n) = stream_values(id, class);
    model[id] = Obj {
        class,
        payload,
        n,
        children: Vec::new(),
        live: true,
        touched: true,
    };
    if let Some(p) = parent {
        model[p].children.push(id);
    }
}

/// Grows the model over the ids an unacknowledged op would have created.
fn reserve(model: &mut Vec<Obj>, op: &Op) {
    match *op {
        Op::IngestTxn { asm, parts, .. } | Op::MakeSmall { asm, parts } => {
            ensure(model, asm, Cls::Asm);
            for p in parts {
                ensure(model, p, Cls::Part);
            }
            model[asm].class = Cls::Asm;
        }
        _ => {}
    }
}

/// Applies one acknowledged operation to the model.
pub fn apply(model: &mut Vec<Obj>, op: &Op) {
    match op {
        Op::IngestTxn { root, asm, parts } => {
            create(model, *asm, Cls::Asm, Some(*root));
            for &p in parts {
                create(model, p, Cls::Part, Some(*asm));
            }
        }
        Op::MakeSmall { asm, parts } => {
            create(model, *asm, Cls::Asm, None);
            for &p in parts {
                create(model, p, Cls::Part, Some(*asm));
            }
        }
        Op::SetAttr { o, value } => {
            model[*o].payload = value.clone();
            model[*o].touched = true;
        }
        Op::Delete { asm, parts } => {
            model[*asm].live = false;
            model[*asm].touched = true;
            for &p in parts {
                model[p].live = false;
            }
        }
        Op::DurableTxn { a, b, va, vb } => {
            model[*a].n = Some(*va);
            model[*b].n = Some(*vb);
            model[*a].touched = true;
            model[*b].touched = true;
        }
        Op::Subtree { .. }
        | Op::Get { .. }
        | Op::GetAttr { .. }
        | Op::ComponentsOf { .. }
        | Op::ParentsOf { .. } => {}
    }
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn text(&mut self, lo: usize, hi: usize) -> String {
        let len = self.range(lo, hi);
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

struct Gen {
    rng: Rng,
    model: Vec<Obj>,
    batches: Vec<Vec<Spec>>,
}

impl Gen {
    /// Adds a set-up object to the current (last) batch.
    fn seed_obj(&mut self, class: Cls, payload: String, parent: Option<usize>) -> usize {
        let id = self.model.len();
        let n = (class == Cls::Part).then(|| self.rng.below(1000) as i64);
        self.model.push(Obj {
            class,
            payload: payload.clone(),
            n,
            children: Vec::new(),
            live: true,
            touched: false,
        });
        if let Some(p) = parent {
            self.model[p].children.push(id);
        }
        self.batches.last_mut().expect("open batch").push(Spec {
            id,
            class,
            payload,
            n,
            parent,
        });
        id
    }

    fn composite_ingest(&mut self, ops: usize) -> Vec<Vec<Op>> {
        let clients = Workload::CompositeIngest.clients();
        let rounds = ops / INGEST_FANOUT;
        self.batches.push(Vec::new());
        let roots: Vec<Vec<usize>> = (0..clients)
            .map(|_| {
                (0..rounds)
                    .map(|_| {
                        let p = self.rng.text(24, 40);
                        self.seed_obj(Cls::Root, p, None)
                    })
                    .collect()
            })
            .collect();
        // Ids are handed out client-major so streams never collide.
        let mut next = self.model.len();
        roots
            .iter()
            .map(|my_roots| {
                let mut stream = Vec::with_capacity(ops);
                for &root in my_roots {
                    for _ in 0..INGEST_FANOUT {
                        let asm = next;
                        let parts = [next + 1, next + 2, next + 3];
                        next += 4;
                        stream.push(Op::IngestTxn { root, asm, parts });
                    }
                }
                stream
            })
            .collect()
    }

    fn subtree_read(&mut self, ops: usize) -> Vec<Vec<Op>> {
        // The corpus is sized in user bytes at 9x the pool so that the
        // stored pages (which also hold headers and reverse references)
        // exceed 8x the pool; the run measures and records both.
        let target = 9 * POOL_BYTES;
        let mut roots = Vec::new();
        let mut bytes = 0u64;
        while bytes < target {
            if roots.len().is_multiple_of(32) {
                self.batches.push(Vec::new());
            }
            let first = self.model.len();
            let p = self.rng.text(100, 300);
            let root = self.seed_obj(Cls::Root, p, None);
            for _ in 0..self.rng.range(4, 10) {
                let p = self.rng.text(100, 300);
                let asm = self.seed_obj(Cls::Asm, p, Some(root));
                for _ in 0..self.rng.range(2, 6) {
                    let p = self.rng.text(100, 300);
                    self.seed_obj(Cls::Part, p, Some(asm));
                }
            }
            let members: Vec<usize> = (first..self.model.len()).collect();
            bytes += members
                .iter()
                .map(|&m| self.model[m].user_bytes())
                .sum::<u64>();
            roots.push((root, members));
        }
        (0..Workload::SubtreeRead.clients())
            .map(|_| {
                (0..ops)
                    .map(|_| {
                        let (root, members) = &roots[self.rng.below(roots.len())];
                        Op::Subtree {
                            root: *root,
                            size: members.len(),
                            member: members[self.rng.below(members.len())],
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn point_mix(&mut self, ops: usize) -> Vec<Vec<Op>> {
        // Working set: about half the pool in small composites.
        let target = POOL_BYTES / 2;
        let mut bytes = 0u64;
        let mut live: Vec<usize> = Vec::new();
        while bytes < target {
            if live.len().is_multiple_of(250) {
                self.batches.push(Vec::new());
            }
            let p = self.rng.text(40, 120);
            let asm = self.seed_obj(Cls::Asm, p, None);
            for _ in 0..3 {
                let p = self.rng.text(40, 120);
                self.seed_obj(Cls::Part, p, Some(asm));
            }
            bytes += std::iter::once(asm)
                .chain(self.model[asm].children.clone())
                .map(|o| self.model[o].user_bytes())
                .sum::<u64>();
            live.push(asm);
        }
        let mut model = self.model.clone();
        let mut next = model.len();
        let mut last_set: Option<usize> = None;
        let mut stream = Vec::with_capacity(ops);
        for _ in 0..ops {
            let asm = live[self.rng.below(live.len())];
            let kids = model[asm].children.clone();
            let part = kids[self.rng.below(kids.len())];
            let any = if self.rng.below(2) == 0 { asm } else { part };
            // 90 % small reads, 10 % autocommit writes: a request costs
            // about what the serving layers charge for it, with writes
            // beside the reads.
            let op = match self.rng.below(40) {
                0..=13 => Op::Get { o: any },
                14..=21 => Op::GetAttr {
                    o: match last_set {
                        Some(o) if model[o].live && self.rng.below(2) == 0 => o,
                        _ => any,
                    },
                },
                22..=28 => Op::ComponentsOf {
                    o: asm,
                    expect: kids.clone(),
                },
                29..=35 => Op::ParentsOf {
                    o: part,
                    expect: asm,
                },
                36..=37 => {
                    last_set = Some(any);
                    Op::SetAttr {
                        o: any,
                        value: self.rng.text(40, 120),
                    }
                }
                38 => {
                    let op = Op::MakeSmall {
                        asm: next,
                        parts: [next + 1, next + 2, next + 3],
                    };
                    live.push(next);
                    next += 4;
                    op
                }
                _ => {
                    let i = live.iter().position(|&a| a == asm).expect("live asm");
                    live.swap_remove(i);
                    Op::Delete {
                        asm,
                        parts: [kids[0], kids[1], kids[2]],
                    }
                }
            };
            apply(&mut model, &op);
            stream.push(op);
        }
        vec![stream]
    }

    fn durable_commit(&mut self, ops: usize) -> Vec<Vec<Op>> {
        let clients = Workload::DurableCommit.clients();
        let owned: Vec<Vec<usize>> = (0..clients)
            .map(|_| {
                self.batches.push(Vec::new());
                (0..32)
                    .map(|_| {
                        let p = self.rng.text(24, 72);
                        self.seed_obj(Cls::Part, p, None)
                    })
                    .collect()
            })
            .collect();
        owned
            .iter()
            .map(|mine| {
                (0..ops)
                    .map(|_| {
                        let a = self.rng.below(mine.len());
                        let b = (a + 1 + self.rng.below(mine.len() - 1)) % mine.len();
                        Op::DurableTxn {
                            a: mine[a],
                            b: mine[b],
                            va: self.rng.below(1 << 30) as i64,
                            vb: self.rng.below(1 << 30) as i64,
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Per-class live counts of a model.
pub fn live_counts(model: &[Obj]) -> HashMap<Cls, usize> {
    let mut out = HashMap::new();
    for c in Cls::ALL {
        out.insert(c, 0);
    }
    for o in model.iter().filter(|o| o.live) {
        *out.get_mut(&o.class).expect("class") += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 7, 200);
            let b = Plan::generate(w, 7, 200);
            assert_eq!(format!("{:?}", a.streams), format!("{:?}", b.streams));
            assert_eq!(a.batches.len(), b.batches.len());
        }
    }

    #[test]
    fn point_mix_population_is_steady() {
        let plan = Plan::generate(Workload::PointMix, 3, 4000);
        let before = live_counts(&plan.initial)[&Cls::Asm] as f64;
        let acked: Vec<Vec<bool>> = plan.streams.iter().map(|s| vec![true; s.len()]).collect();
        let after = live_counts(&plan.expected(&acked))[&Cls::Asm] as f64;
        assert!((after / before - 1.0).abs() < 0.2, "{before} -> {after}");
    }

    #[test]
    fn subtree_corpus_exceeds_the_pool() {
        let plan = Plan::generate(Workload::SubtreeRead, 1, 10);
        assert!(plan.corpus_user_bytes() >= 8 * POOL_BYTES);
    }
}
