//! The wire side: the `corion serve` child process, the client
//! connections, and each operation as a sequence of `Client` calls.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corion::client::{Client, ClientError};
use corion::core::{ClassId, Oid, Value};
use corion::protocol::{
    encode_response, Delta, Request, Response, WireAttrDef, WireDomain, WireMakeSpec, WireParent,
};

use crate::gen::{stream_values, Cls, Obj, Op, Spec, N, PAYLOAD};

/// Transaction attempts before an operation counts as failed.
pub const ATTEMPTS: u32 = 16;

/// A running `corion serve --data-dir` child.
pub struct Server {
    child: Child,
    /// Drains the child's stdout; ends when the child exits.
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on `dir` (port picked by the kernel) and waits
    /// until it reports its listening address.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("corion serve: listening on ") {
                        break a.trim().parse::<SocketAddr>().map_err(|e| e.to_string());
                    }
                }
                _ => break Err("server exited before listening".to_string()),
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        let drain = Some(std::thread::spawn(move || for _ in lines {}));
        let mut server = Server {
            child,
            drain,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // On error, dropping `server` kills and reaps the child.
        server.addr = addr?;
        Ok(server)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr, 0).map_err(|e| format!("connect: {e}"))
    }

    /// SIGKILL, then reap.
    pub fn kill(self) {
        drop(self);
    }

    /// Wire `Shutdown`, then reap (SIGKILL if it does not exit).
    pub fn shutdown(mut self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    /// Kills the child if it still runs, reaps it, and joins the drain.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Logical id → OID, shared by every client of one backend.
pub struct Ids {
    serials: Vec<AtomicU64>,
    classes: Vec<Cls>,
    class_ids: [ClassId; 3],
}

impl Ids {
    pub fn new(classes: Vec<Cls>, class_ids: [ClassId; 3]) -> Ids {
        Ids {
            serials: (0..classes.len())
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
            classes,
            class_ids,
        }
    }

    pub fn class_id(&self, c: Cls) -> ClassId {
        self.class_ids[c.index()]
    }

    pub fn oid(&self, id: usize) -> Oid {
        Oid {
            class: self.class_id(self.classes[id]),
            serial: self.serials[id].load(Ordering::Acquire),
        }
    }

    /// Records the OID a backend handed out for `id`, checking its class.
    pub fn bind(&self, id: usize, oid: Oid) -> Result<(), String> {
        if oid.class != self.class_id(self.classes[id]) {
            return Err(format!(
                "object {id}: got {oid:?}, expected a {:?}",
                self.classes[id]
            ));
        }
        self.serials[id].store(oid.serial, Ordering::Release);
        Ok(())
    }

    /// The sorted OIDs of `ids`: what a set-valued answer is checked against.
    pub fn expect_set(&self, ids: &[usize]) -> Vec<Oid> {
        let mut v: Vec<Oid> = ids.iter().map(|&i| self.oid(i)).collect();
        v.sort();
        v
    }
}

/// How one operation went.
pub enum OpError {
    /// An output check failed: the run is wrong, not slow.
    Check(String),
    /// The operation failed after the client's retries, or was refused.
    Failed(String),
}

impl From<ClientError> for OpError {
    fn from(e: ClientError) -> Self {
        OpError::Failed(e.to_string())
    }
}

pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), OpError> {
    if ok {
        Ok(())
    } else {
        Err(OpError::Check(what()))
    }
}

/// The wire name of a request (the kinds the workloads send).
pub fn kind_name(req: &Request) -> &'static str {
    match req {
        Request::Ping => "Ping",
        Request::Begin => "Begin",
        Request::Commit => "Commit",
        Request::Abort => "Abort",
        Request::Make { .. } => "Make",
        Request::SetAttr { .. } => "SetAttr",
        Request::Delete { .. } => "Delete",
        Request::MakeMany { .. } => "MakeMany",
        Request::Get { .. } => "Get",
        Request::GetAttr { .. } => "GetAttr",
        Request::ComponentsOf { .. } => "ComponentsOf",
        Request::ParentsOf { .. } => "ParentsOf",
        Request::SubtreeOf { .. } => "SubtreeOf",
        _ => "Other",
    }
}

/// One request as the traced run records it.
pub struct Call {
    pub op: u32,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: Request,
    pub resp_bytes: Vec<u8>,
}

/// A client session with per-request timing.
pub struct Conn {
    pub client: Client,
    epoch: Instant,
    /// Current operation index (for span parents).
    pub op: u32,
    pub requests: u64,
    /// `(kind, latency ns)` of every request.
    pub latencies: Vec<(&'static str, u64)>,
    /// Whether the current operation records its calls.
    pub tracing: bool,
    /// Calls recorded while `tracing` was on.
    pub calls: Vec<Call>,
    /// Time spent recording them, ns.
    pub trace_ns: u64,
}

impl Conn {
    pub fn new(client: Client, epoch: Instant) -> Conn {
        Conn {
            client,
            epoch,
            op: 0,
            requests: 0,
            latencies: Vec::new(),
            tracing: false,
            calls: Vec::new(),
            trace_ns: 0,
        }
    }

    pub fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let start = Instant::now();
        let resp = self.client.call(&req);
        let end = Instant::now();
        self.requests += 1;
        let kind = kind_name(&req);
        self.latencies.push((kind, (end - start).as_nanos() as u64));
        if self.tracing {
            let wire_resp = match &resp {
                Ok(r) => r.clone(),
                Err(ClientError::Server { code, message }) => Response::Error {
                    code: *code,
                    message: message.clone(),
                },
                Err(_) => Response::Ok,
            };
            self.calls.push(Call {
                op: self.op,
                kind,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                req,
                resp_bytes: encode_response(&wire_resp),
            });
            self.trace_ns += end.elapsed().as_nanos() as u64;
        }
        resp
    }

    fn oid(&mut self, req: Request) -> Result<Oid, ClientError> {
        match self.call(req)? {
            Response::OkOid(o) => Ok(o),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn oids(&mut self, req: Request) -> Result<Vec<Oid>, ClientError> {
        match self.call(req)? {
            Response::OkOids(o) => Ok(o),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn ok(&mut self, req: Request) -> Result<(), ClientError> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Runs `body` between `Begin` and `Commit`, retrying retryable
    /// failures (deadlock victims) as a whole transaction.
    fn txn<R>(
        &mut self,
        mut body: impl FnMut(&mut Conn) -> Result<R, ClientError>,
    ) -> Result<R, OpError> {
        let mut last = String::new();
        for _ in 0..ATTEMPTS {
            self.ok(Request::Begin)?;
            let r = body(self).and_then(|r| match self.call(Request::Commit)? {
                Response::OkLsn(_) => Ok(r),
                other => Err(ClientError::Unexpected(format!("{other:?}"))),
            });
            match r {
                Ok(r) => return Ok(r),
                Err(e) if e.is_retryable() => {
                    // Deadlock victims are already rolled back server-side
                    // (Abort then answers TransactionState); ignore it.
                    let _ = self.call(Request::Abort);
                    last = e.to_string();
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(OpError::Failed(format!("{ATTEMPTS} attempts: {last}")))
    }

    /// Retries a single autocommit request on retryable errors.
    fn retry<R>(
        &mut self,
        mut f: impl FnMut(&mut Conn) -> Result<R, ClientError>,
    ) -> Result<R, OpError> {
        let mut last = String::new();
        for _ in 0..ATTEMPTS {
            match f(self) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_retryable() => last = e.to_string(),
                Err(e) => return Err(e.into()),
            }
        }
        Err(OpError::Failed(format!("{ATTEMPTS} attempts: {last}")))
    }
}

pub fn values_of(class: Cls, payload: &str, n: Option<i64>) -> Vec<(String, Value)> {
    let mut v = vec![(PAYLOAD.to_string(), Value::Str(payload.to_string()))];
    if let Some(n) = n {
        debug_assert_eq!(class, Cls::Part);
        v.push((N.to_string(), Value::Int(n)));
    }
    v
}

pub fn stream_spec(id: usize, class: Cls) -> Vec<(String, Value)> {
    let (p, n) = stream_values(id, class);
    values_of(class, &p, n)
}

/// The benchmark schema as wire DDL, in definition order.
pub fn schema() -> Vec<(Cls, Vec<WireAttrDef>)> {
    Cls::ALL
        .into_iter()
        .map(|c| {
            let mut attrs = vec![WireAttrDef {
                name: PAYLOAD.into(),
                domain: WireDomain::String,
                composite: None,
            }];
            if c == Cls::Part {
                attrs.push(WireAttrDef {
                    name: N.into(),
                    domain: WireDomain::Integer,
                    composite: None,
                });
            }
            (c, attrs)
        })
        .collect()
}

/// Defines the schema over the wire; returns the class ids.
pub fn define_schema(c: &mut Client) -> Result<[ClassId; 3], ClientError> {
    let mut ids = [ClassId(0); 3];
    for (cls, mut attrs) in schema() {
        if let Some(child) = cls.child_class() {
            attrs.push(WireAttrDef {
                name: cls.child_attr().expect("composite").into(),
                domain: WireDomain::SetOf(Box::new(WireDomain::Class(ids[child.index()]))),
                composite: Some((true, true)),
            });
        }
        ids[cls.index()] = c.define_class(cls.name(), vec![], attrs)?;
    }
    Ok(ids)
}

/// Seeds one set-up batch with `MakeMany`.
pub fn seed_batch(c: &mut Client, ids: &Ids, batch: &[Spec]) -> Result<(), String> {
    let first = batch[0].id;
    let specs = batch
        .iter()
        .map(|s| WireMakeSpec {
            class: ids.class_id(s.class),
            values: values_of(s.class, &s.payload, s.n),
            parents: s
                .parent
                .map(|p| {
                    let attr = s.class.parent_attr().to_string();
                    let parent = if p >= first {
                        WireParent::Created((p - first) as u32)
                    } else {
                        WireParent::Existing(ids.oid(p))
                    };
                    vec![(parent, attr)]
                })
                .unwrap_or_default(),
        })
        .collect();
    let oids = c.make_many(specs).map_err(|e| format!("seeding: {e}"))?;
    if oids.len() != batch.len() {
        return Err(format!(
            "seeding: {} OIDs for {} specs",
            oids.len(),
            batch.len()
        ));
    }
    for (s, oid) in batch.iter().zip(oids) {
        ids.bind(s.id, oid)?;
    }
    Ok(())
}

/// The change a write should show on the stream.
pub fn expected_delta(op: &Op, ids: &Ids) -> Option<Delta> {
    match *op {
        Op::SetAttr { o, .. } => Some(Delta::Changed(ids.oid(o))),
        Op::MakeSmall { asm, .. } => Some(Delta::Made(ids.oid(asm))),
        Op::Delete { asm, .. } => Some(Delta::Deleted(ids.oid(asm))),
        _ => None,
    }
}

fn payload_value(attrs: &[(String, Value)]) -> Option<&Value> {
    attrs.iter().find(|(n, _)| n == PAYLOAD).map(|(_, v)| v)
}

/// Runs one operation over the wire and checks its outputs against the
/// model (the state just before `op`).
pub fn run_op(conn: &mut Conn, ids: &Ids, op: &Op, model: &[Obj]) -> Result<(), OpError> {
    let payload = |o: usize| model[o].payload.clone();
    match op {
        Op::IngestTxn { root, asm, parts } => {
            let (root_oid, asm_class, part_class) = (
                ids.oid(*root),
                ids.class_id(Cls::Asm),
                ids.class_id(Cls::Part),
            );
            let made = conn.txn(|c| {
                let a = c.oid(Request::Make {
                    class: asm_class,
                    values: stream_spec(*asm, Cls::Asm),
                    parents: vec![(root_oid, "subs".into())],
                })?;
                let mut out = vec![a];
                for &p in parts {
                    out.push(c.oid(Request::Make {
                        class: part_class,
                        values: stream_spec(p, Cls::Part),
                        parents: vec![(a, "parts".into())],
                    })?);
                }
                Ok(out)
            })?;
            ids.bind(*asm, made[0]).map_err(OpError::Check)?;
            for (&p, &o) in parts.iter().zip(&made[1..]) {
                ids.bind(p, o).map_err(OpError::Check)?;
            }
            Ok(())
        }
        Op::Subtree { root, size, member } => {
            let got = conn.retry(|c| {
                c.oids(Request::SubtreeOf {
                    oid: ids.oid(*root),
                })
            })?;
            let m = ids.oid(*member);
            check(got.len() == *size && got.contains(&m), || {
                format!(
                    "SubtreeOf root {root}: {} members, expected {size} incl. {m:?}",
                    got.len()
                )
            })?;
            let want = payload(*member);
            match conn.retry(|c| c.call(Request::Get { oid: m }))? {
                Response::OkObject { attrs, .. } => check(
                    payload_value(&attrs) == Some(&Value::Str(want.clone())),
                    || format!("Get {m:?}: payload differs from the corpus"),
                ),
                other => Err(OpError::Check(format!("Get {m:?}: {other:?}"))),
            }
        }
        Op::Get { o } => {
            let oid = ids.oid(*o);
            match conn.retry(|c| c.call(Request::Get { oid }))? {
                Response::OkObject { attrs, .. } => check(
                    payload_value(&attrs) == Some(&Value::Str(payload(*o))),
                    || format!("Get {oid:?}: stale or wrong payload"),
                ),
                other => Err(OpError::Check(format!("Get {oid:?}: {other:?}"))),
            }
        }
        Op::GetAttr { o } => {
            let oid = ids.oid(*o);
            let v = conn.retry(|c| {
                c.call(Request::GetAttr {
                    oid,
                    attr: PAYLOAD.into(),
                })
            })?;
            check(v == Response::OkValue(Value::Str(payload(*o))), || {
                format!("GetAttr {oid:?}: read-your-writes violated ({v:?})")
            })
        }
        Op::ComponentsOf { o, expect } => {
            let mut got = conn.retry(|c| c.oids(Request::ComponentsOf { oid: ids.oid(*o) }))?;
            got.sort();
            check(got == ids.expect_set(expect), || {
                format!("ComponentsOf {o}: {got:?}")
            })
        }
        Op::ParentsOf { o, expect } => {
            let got = conn.retry(|c| c.oids(Request::ParentsOf { oid: ids.oid(*o) }))?;
            check(got == vec![ids.oid(*expect)], || {
                format!("ParentsOf {o}: {got:?}")
            })
        }
        Op::SetAttr { o, value } => conn.retry(|c| {
            c.ok(Request::SetAttr {
                oid: ids.oid(*o),
                attr: PAYLOAD.into(),
                value: Value::Str(value.clone()),
            })
        }),
        Op::MakeSmall { asm, parts } => {
            let mut specs = vec![WireMakeSpec {
                class: ids.class_id(Cls::Asm),
                values: stream_spec(*asm, Cls::Asm),
                parents: vec![],
            }];
            for &p in parts {
                specs.push(WireMakeSpec {
                    class: ids.class_id(Cls::Part),
                    values: stream_spec(p, Cls::Part),
                    parents: vec![(WireParent::Created(0), "parts".into())],
                });
            }
            let oids = conn.retry(|c| {
                c.oids(Request::MakeMany {
                    specs: specs.clone(),
                })
            })?;
            check(oids.len() == 4, || format!("MakeMany: {} OIDs", oids.len()))?;
            ids.bind(*asm, oids[0]).map_err(OpError::Check)?;
            for (&p, &o) in parts.iter().zip(&oids[1..]) {
                ids.bind(p, o).map_err(OpError::Check)?;
            }
            Ok(())
        }
        Op::Delete { asm, parts } => {
            let mut gone = conn.retry(|c| c.oids(Request::Delete { oid: ids.oid(*asm) }))?;
            gone.sort();
            let mut want: Vec<usize> = parts.to_vec();
            want.push(*asm);
            check(gone == ids.expect_set(&want), || {
                format!("Delete {asm}: cascade {gone:?} is not the Asm and its 3 Parts")
            })
        }
        Op::DurableTxn { a, b, va, vb } => {
            let (oa, ob) = (ids.oid(*a), ids.oid(*b));
            conn.txn(|c| {
                c.ok(Request::SetAttr {
                    oid: oa,
                    attr: N.into(),
                    value: Value::Int(*va),
                })?;
                c.ok(Request::SetAttr {
                    oid: ob,
                    attr: N.into(),
                    value: Value::Int(*vb),
                })
            })
        }
    }
}

/// Total bytes of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty directory `name` under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let d = root.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
    Ok(d)
}
