//! Per-connection sessions: handshake, request dispatch, authorization,
//! and the subscription loop.
//!
//! One thread per session (no async runtime — the engine's latches and
//! locks are thread-blocking anyway). A session is a tiny state machine:
//!
//! ```text
//! handshake → request loop ─ Subscribe → event loop → close
//!                         └─ close / idle timeout / shutdown
//! ```
//!
//! Reads outside a transaction pin a fresh MVCC [`Snapshot`] per request
//! (read-your-own-commits, never blocks writers). `Begin` binds at most
//! one [`WriteTxn`] to the session; inside it, reads go through the
//! transaction so the session sees its own uncommitted writes. A
//! deadlock inside a session transaction aborts it (the engine already
//! released its locks) and surfaces as the *retryable* `Deadlock` wire
//! error — the client owns the retry, matching the §7 victim contract.
//! Mutations outside a transaction autocommit through
//! [`ConcurrentDb::run_write`], which retries deadlock victims
//! internally.
//!
//! Authorization (§6) is enforced per request before the engine runs:
//! superuser (user 0) bypasses; everyone else needs an explicit
//! [`Decision::Granted`] — absence of authorization denies, with a
//! message distinguishing prohibition from absence. Lock order is always
//! auth store **outside** engine latch.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corion_authz::{AuthObject, AuthType, Authorization, Decision, Sign, Strength, UserId};
use corion_concurrent::{Snapshot, WriteTxn};
use corion_core::schema::lattice;
use corion_core::{
    query, ClassBuilder, ClassId, CompositeSpec, Database, DbError, DbResult, Domain, MakeSpec,
    Object, Oid, Overlay, ParentRef, Value,
};
use corion_protocol::{
    decode_request, encode_response, is_timeout, read_frame_by, write_frame, ErrorCode, FrameError,
    Request, Response, WireAuth, WireAuthObject, WireDomain, WireParent, WirePredicate, MAGIC,
    VERSION,
};

use crate::Inner;

/// Granularity of the idle/shutdown poll while waiting for a request:
/// the socket's read timeout for the whole session.
pub(crate) const POLL: Duration = Duration::from_millis(50);
/// Once a frame has started arriving, how long the rest may take.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Why the wait-for-request loop returned.
enum Wait {
    /// A frame is ready to read.
    Ready,
    /// The peer closed the connection.
    Closed,
    /// The session sat idle past the configured timeout.
    Idle,
    /// The server is shutting down.
    ShuttingDown,
}

struct Session<'a> {
    inner: &'a Arc<Inner>,
    /// Requests are read through the buffer, so a frame that arrives in
    /// one segment is one `read`, and requests sent together are read
    /// together. Responses go straight to the socket (`get_ref`).
    conn: BufReader<TcpStream>,
    id: u64,
    user: UserId,
    txn: Option<WriteTxn>,
    /// OIDs created inside the currently open transaction: authorization
    /// for them cannot come from the committed state (they are not in it
    /// yet), so the creating session holds them implicitly until commit.
    created: HashSet<Oid>,
}

/// Runs one session to completion. Never panics outward; all failure
/// modes close the connection.
pub(crate) fn run(inner: Arc<Inner>, stream: TcpStream, id: u64) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut session = Session {
        inner: &inner,
        conn: BufReader::new(stream),
        id,
        user: UserId(0),
        txn: None,
        created: HashSet::new(),
    };
    let _ = session.serve();
    // An abandoned open transaction aborts on drop (WriteTxn::drop).
}

impl Session<'_> {
    fn send(&mut self, resp: &Response) -> Result<(), FrameError> {
        if matches!(resp, Response::Error { .. }) {
            self.inner.metrics.errors.inc();
        }
        Ok(write_frame(
            &mut self.conn.get_ref(),
            &encode_response(resp),
        )?)
    }

    fn send_error(
        &mut self,
        code: ErrorCode,
        message: impl Into<String>,
    ) -> Result<(), FrameError> {
        self.send(&Response::Error {
            code,
            message: message.into(),
        })
    }

    /// Blocks until a frame has started arriving (at once when bytes are
    /// already buffered), the peer closes, the idle timeout elapses, or
    /// the server shuts down. Each empty read waits one `POLL`, so
    /// shutdown is noticed promptly.
    fn wait_for_frame(&mut self) -> Wait {
        let mut idle = Duration::ZERO;
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Wait::ShuttingDown;
            }
            match self.conn.fill_buf() {
                Ok([]) => return Wait::Closed,
                Ok(_) => return Wait::Ready,
                Err(e) if is_timeout(&e) => {
                    idle += POLL;
                    if idle >= self.inner.idle_timeout {
                        return Wait::Idle;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Wait::Closed,
            }
        }
    }

    fn read_request(&mut self) -> Result<Option<Request>, FrameError> {
        loop {
            match self.wait_for_frame() {
                Wait::Ready => {}
                Wait::Closed => return Ok(None),
                Wait::Idle => {
                    self.inner.metrics.idle_timeouts.inc();
                    let _ = self.send_error(ErrorCode::IdleTimeout, "session idle timeout");
                    return Ok(None);
                }
                Wait::ShuttingDown => {
                    let _ = self.send_error(ErrorCode::ShuttingDown, "server is shutting down");
                    return Ok(None);
                }
            }
            let payload = read_frame_by(&mut self.conn, Some(Instant::now() + FRAME_TIMEOUT))?;
            match decode_request(&payload) {
                Ok(req) => return Ok(Some(req)),
                Err(e) => {
                    // Framing is still in sync (the length prefix was
                    // valid); the error *is* the response — wait for the
                    // next request.
                    self.send_error(ErrorCode::Protocol, e.to_string())?;
                }
            }
        }
    }

    fn serve(&mut self) -> Result<(), FrameError> {
        // Handshake: the first frame must be Hello.
        let Some(req) = self.read_request()? else {
            return Ok(());
        };
        self.inner.metrics.requests.inc();
        match req {
            Request::Hello {
                magic,
                version,
                user,
            } => {
                if magic != MAGIC {
                    // Not our protocol; drop without replying (replying
                    // to a random scanner leaks what we are).
                    return Ok(());
                }
                if version != VERSION {
                    self.send_error(
                        ErrorCode::VersionMismatch,
                        format!("server speaks protocol v{VERSION}, client sent v{version}"),
                    )?;
                    return Ok(());
                }
                self.user = UserId(user);
                self.send(&Response::HelloOk {
                    version: VERSION,
                    session: self.id,
                })?;
            }
            _ => {
                self.send_error(ErrorCode::Protocol, "expected Hello as the first message")?;
                return Ok(());
            }
        }

        loop {
            let Some(req) = self.read_request()? else {
                return Ok(());
            };
            self.inner.metrics.requests.inc();
            match req {
                Request::Hello { .. } => {
                    self.send_error(ErrorCode::Protocol, "session already established")?;
                }
                Request::Subscribe => {
                    return self.subscribe_loop();
                }
                Request::Shutdown => {
                    if self.user.0 != 0 {
                        self.send_error(ErrorCode::AuthDenied, "Shutdown requires the superuser")?;
                        continue;
                    }
                    self.inner.shutdown.store(true, Ordering::SeqCst);
                    // Reply before waking the accept loop: `corion serve`
                    // exits once that loop has.
                    let sent = self.send(&Response::Ok);
                    self.inner.wake_accept();
                    return sent;
                }
                other => {
                    let resp = self.dispatch(other);
                    self.send(&resp)?;
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Subscription mode
    // ----------------------------------------------------------------

    /// Turns the connection into a one-way event stream. The §6 store
    /// has no per-event filter, so streams are superuser-only — a
    /// change stream would otherwise leak every object's existence.
    fn subscribe_loop(&mut self) -> Result<(), FrameError> {
        if self.user.0 != 0 {
            self.send_error(ErrorCode::AuthDenied, "Subscribe requires the superuser")?;
            return Ok(());
        }
        if self.txn.is_some() {
            self.send_error(
                ErrorCode::TransactionState,
                "cannot subscribe with an open transaction",
            )?;
            return Ok(());
        }
        let sub = self.inner.streams.subscribe();
        self.inner
            .metrics
            .streams_active
            .set(self.inner.streams.subscriber_count() as i64);
        self.send(&Response::SubscribeOk {
            start_lsn: sub.start_lsn,
        })?;
        // From here a read only checks whether the subscriber has gone.
        let _ = self
            .conn
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(1)));
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                let _ = self.send_error(ErrorCode::ShuttingDown, "server is shutting down");
                return Ok(());
            }
            match sub.events.recv_timeout(POLL) {
                Ok(ev) => {
                    self.send(&Response::Event {
                        commit_lsn: ev.commit_lsn,
                        deltas: ev.deltas,
                    })?;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Detect a departed subscriber so the tailer's sender
                    // list stays clean.
                    match self.conn.fill_buf() {
                        Ok([]) => return Ok(()),
                        Err(e) if !is_timeout(&e) => return Ok(()),
                        _ => {}
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let code = if sub.lagged.load(Ordering::SeqCst) {
                        (
                            ErrorCode::SlowConsumer,
                            "event queue overflowed; re-subscribe and reconcile",
                        )
                    } else {
                        (ErrorCode::ShuttingDown, "change stream closed")
                    };
                    let _ = self.send_error(code.0, code.1);
                    return Ok(());
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Authorization
    // ----------------------------------------------------------------

    fn deny(&self, d: Decision, what: String) -> Response {
        let message = match d {
            Decision::Prohibited => format!("{what}: prohibited by a negative authorization"),
            _ => format!("{what}: no authorization (absence, not prohibition)"),
        };
        Response::Error {
            code: ErrorCode::AuthDenied,
            message,
        }
    }

    /// Per-instance check. The composite single-check benefit (§6) is in
    /// the store: a grant on any ancestor answers for the whole object.
    fn authz_instance(&self, ty: AuthType, oid: Oid) -> Result<(), Response> {
        if self.user.0 == 0 || self.created.contains(&oid) {
            return Ok(());
        }
        let auth = self.inner.auth.read();
        let decision = self
            .inner
            .db
            .with_read(|d| auth.check(d, self.user, ty, oid));
        match decision {
            Ok(Decision::Granted) => Ok(()),
            Ok(d) => Err(self.deny(d, format!("{ty:?} on {oid:?}"))),
            Err(e) => Err(Response::Error {
                code: ErrorCode::AuthDenied,
                message: format!("{ty:?} on {oid:?}: {e}"),
            }),
        }
    }

    /// Class-granule check, for operations with no object to anchor on
    /// (parentless make, extension scans). Instance grants do not
    /// contribute at this granule.
    fn authz_class(&self, ty: AuthType, class: ClassId) -> Result<(), Response> {
        if self.user.0 == 0 {
            return Ok(());
        }
        let auth = self.inner.auth.read();
        let decision = self
            .inner
            .db
            .with_read(|d| auth.check_class(d, self.user, ty, class));
        match decision {
            Decision::Granted => Ok(()),
            d => Err(self.deny(d, format!("{ty:?} on class {class:?}"))),
        }
    }

    fn superuser_only(&self, what: &str) -> Result<(), Response> {
        if self.user.0 == 0 {
            Ok(())
        } else {
            Err(Response::Error {
                code: ErrorCode::AuthDenied,
                message: format!("{what} requires the superuser"),
            })
        }
    }

    // ----------------------------------------------------------------
    // Dispatch
    // ----------------------------------------------------------------

    fn dispatch(&mut self, req: Request) -> Response {
        match self.dispatch_inner(req) {
            Ok(resp) => resp,
            Err(resp) => resp,
        }
    }

    /// `Err` carries an early-out response (authorization denials);
    /// `Ok` the real answer.
    fn dispatch_inner(&mut self, req: Request) -> Result<Response, Response> {
        Ok(match req {
            // Handled by `serve` before dispatch.
            Request::Hello { .. } | Request::Subscribe | Request::Shutdown => Response::Error {
                code: ErrorCode::Protocol,
                message: "control message outside the session loop".into(),
            },
            Request::Ping => Response::Pong,

            // -- transaction control --------------------------------
            Request::Begin => {
                if self.txn.is_some() {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "a transaction is already open on this session".into(),
                    });
                }
                self.txn = Some(self.inner.db.begin_write());
                self.created.clear();
                Response::Ok
            }
            Request::Commit => match self.txn.take() {
                None => {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "no open transaction".into(),
                    })
                }
                Some(txn) => {
                    self.created.clear();
                    match txn.commit() {
                        Ok(lsn) => Response::OkLsn(lsn),
                        Err(e) => Response::from_db_error(&e),
                    }
                }
            },
            Request::Abort => match self.txn.take() {
                None => {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "no open transaction".into(),
                    })
                }
                Some(mut txn) => {
                    txn.abort();
                    self.created.clear();
                    Response::Ok
                }
            },

            // -- mutations ------------------------------------------
            Request::Make {
                class,
                values,
                parents,
            } => {
                if parents.is_empty() {
                    self.authz_class(AuthType::Write, class)?;
                } else {
                    for (p, _) in &parents {
                        self.authz_instance(AuthType::Write, *p)?;
                    }
                }
                let result = self.mutate(|txn| {
                    let v: Vec<(&str, Value)> = values
                        .iter()
                        .map(|(n, v)| (n.as_str(), v.clone()))
                        .collect();
                    let p: Vec<(Oid, &str)> =
                        parents.iter().map(|(o, a)| (*o, a.as_str())).collect();
                    txn.make(class, v, p)
                });
                match result {
                    Ok(oid) => {
                        if self.txn.is_some() {
                            self.created.insert(oid);
                        }
                        Response::OkOid(oid)
                    }
                    Err(e) => self.txn_error(e),
                }
            }
            Request::SetAttr { oid, attr, value } => {
                self.authz_instance(AuthType::Write, oid)?;
                match self.mutate(|txn| txn.set_attr(oid, &attr, value.clone())) {
                    Ok(()) => Response::Ok,
                    Err(e) => self.txn_error(e),
                }
            }
            Request::Delete { oid } => {
                self.authz_instance(AuthType::Write, oid)?;
                match self.mutate(|txn| txn.delete(oid)) {
                    Ok(gone) => Response::OkOids(gone),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::MakeComponent {
                child,
                parent,
                attr,
            } => {
                self.authz_instance(AuthType::Write, parent)?;
                self.authz_instance(AuthType::Write, child)?;
                match self.mutate(|txn| txn.make_component(child, parent, &attr)) {
                    Ok(()) => Response::Ok,
                    Err(e) => self.txn_error(e),
                }
            }
            Request::RemoveComponent {
                child,
                parent,
                attr,
            } => {
                self.authz_instance(AuthType::Write, parent)?;
                self.authz_instance(AuthType::Write, child)?;
                match self.mutate(|txn| txn.remove_component(child, parent, &attr)) {
                    Ok(()) => Response::Ok,
                    Err(e) => self.txn_error(e),
                }
            }
            Request::MakeMany { specs } => {
                // Stop-the-world bulk ingest: exclusive, not transactional.
                self.superuser_only("MakeMany")?;
                if self.txn.is_some() {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "MakeMany cannot run inside an open transaction".into(),
                    });
                }
                let native: Vec<MakeSpec> = specs
                    .iter()
                    .map(|s| MakeSpec {
                        class: s.class,
                        values: s.values.clone(),
                        parents: s
                            .parents
                            .iter()
                            .map(|(p, a)| {
                                let pr = match p {
                                    WireParent::Existing(o) => ParentRef::Existing(*o),
                                    WireParent::Created(i) => ParentRef::Created(*i as usize),
                                };
                                (pr, a.clone())
                            })
                            .collect(),
                    })
                    .collect();
                match self.inner.db.with_exclusive(|d| d.make_many(&native)) {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => Response::from_db_error(&e),
                }
            }

            // -- reads ----------------------------------------------
            Request::Get { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                self.read_object(oid)
            }
            Request::GetAttr { oid, attr } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.get_attr(oid, &attr),
                    None => self.inner.db.begin_read().get_attr(oid, &attr),
                };
                match r {
                    Ok(v) => Response::OkValue(v),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::Exists { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.exists(oid),
                    None => self.inner.db.begin_read().exists(oid),
                };
                match r {
                    Ok(b) => Response::OkBool(b),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::InstancesOf { class, deep } => {
                self.authz_class(AuthType::Read, class)?;
                let r = match &mut self.txn {
                    Some(txn) => {
                        txn.with_view(&[], |db, ov| Ok(db.overlay_instances_of(ov, class, deep)))
                    }
                    None => self.inner.db.begin_read().instances_of(class, deep),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::ComponentsOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |db, ov| direct_components(db, ov, oid)),
                    None => self.inner.db.begin_read().components_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::ParentsOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |db, ov| {
                        Ok(db.overlay_get(ov, oid)?.composite_parents())
                    }),
                    None => self.inner.db.begin_read().parents_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::AncestorsOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |db, ov| ancestors(db, ov, oid)),
                    None => self.inner.db.begin_read().ancestors_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::SubtreeOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |db, ov| subtree(db, ov, oid)),
                    None => self.inner.db.begin_read().subtree_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::Select {
                class,
                deep,
                predicate,
                limit,
            } => {
                self.authz_class(AuthType::Read, class)?;
                let limit = (limit != 0).then_some(limit as usize);
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[], |db, ov| {
                        run_select(&View::Txn(db, ov), class, deep, &predicate, limit, |c| {
                            let mut set: HashSet<ClassId> =
                                lattice::descendants(db.catalog(), c).into_iter().collect();
                            set.insert(c);
                            set
                        })
                    }),
                    None => {
                        let snap = self.inner.db.begin_read();
                        // Precompute subclass sets outside the snapshot's
                        // internal latching (descendants needs the catalog).
                        let classes = collect_classes(&predicate);
                        let mut desc: HashMap<ClassId, HashSet<ClassId>> = HashMap::new();
                        self.inner.db.with_read(|d| {
                            for c in classes {
                                let mut set: HashSet<ClassId> =
                                    lattice::descendants(d.catalog(), c).into_iter().collect();
                                set.insert(c);
                                desc.insert(c, set);
                            }
                        });
                        run_select(&View::Snap(&snap), class, deep, &predicate, limit, |c| {
                            desc.get(&c).cloned().unwrap_or_default()
                        })
                    }
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }

            // -- catalog --------------------------------------------
            Request::ClassByName { name } => {
                match self
                    .inner
                    .db
                    .with_read(|d| d.class_by_name(&name).map(|c| (c, name.clone())))
                {
                    Ok((class, name)) => Response::OkClass { class, name },
                    Err(e) => Response::from_db_error(&e),
                }
            }
            Request::ListClasses => {
                let classes = self.inner.db.with_read(|d| {
                    let mut out: Vec<(ClassId, String)> = d
                        .catalog()
                        .all_classes()
                        .into_iter()
                        .filter_map(|c| d.class(c).ok().map(|cl| (c, cl.name.clone())))
                        .collect();
                    out.sort();
                    out
                });
                Response::OkClasses(classes)
            }
            Request::DefineClass {
                name,
                supers,
                attrs,
            } => {
                self.superuser_only("DefineClass")?;
                let result = self.inner.db.with_exclusive(|d| {
                    let mut builder = ClassBuilder::new(name.clone());
                    for s in &supers {
                        builder = builder.superclass(d.catalog().by_name(s)?);
                    }
                    for a in &attrs {
                        builder = match a.composite {
                            Some((exclusive, dependent)) => builder.attr_composite(
                                a.name.clone(),
                                to_domain(&a.domain),
                                CompositeSpec {
                                    exclusive,
                                    dependent,
                                },
                            ),
                            None => builder.attr(a.name.clone(), to_domain(&a.domain)),
                        };
                    }
                    d.define_class(builder)
                });
                match result {
                    Ok(class) => Response::OkClass { class, name },
                    Err(e) => Response::from_db_error(&e),
                }
            }

            // -- administration -------------------------------------
            Request::Metrics => {
                Response::OkText(self.inner.db.with_read(|d| d.render_prometheus()))
            }
            Request::Grant { user, object, auth } => {
                self.superuser_only("Grant")?;
                let a = to_authorization(auth);
                let object = to_auth_object(object);
                let mut store = self.inner.auth.write();
                let r = self
                    .inner
                    .db
                    .with_read(|d| store.grant(d, UserId(user), object, a));
                match r {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error {
                        code: ErrorCode::Constraint,
                        message: e.to_string(),
                    },
                }
            }
            Request::Revoke { user, object, auth } => {
                self.superuser_only("Revoke")?;
                let removed = self.inner.auth.write().revoke(
                    UserId(user),
                    to_auth_object(object),
                    to_authorization(auth),
                );
                Response::OkBool(removed)
            }
        })
    }

    /// Runs a mutation: through the open session transaction if there is
    /// one, else as an autocommit via [`ConcurrentDb::run_write`] (which
    /// retries deadlock victims itself).
    fn mutate<R>(&mut self, mut op: impl FnMut(&mut WriteTxn) -> DbResult<R>) -> DbResult<R> {
        match &mut self.txn {
            Some(txn) => op(txn),
            None => self.inner.db.run_write(|txn| op(txn)),
        }
    }

    /// Maps an engine error to the wire, clearing the session
    /// transaction if the engine already aborted it (deadlock victims
    /// release their locks immediately — §7).
    fn txn_error(&mut self, e: DbError) -> Response {
        if matches!(e, DbError::Deadlock { .. }) {
            // run_op aborted the transaction before returning the error.
            self.txn = None;
            self.created.clear();
        }
        Response::from_db_error(&e)
    }

    fn read_object(&mut self, oid: Oid) -> Response {
        let result: DbResult<(Object, Vec<String>)> = match &mut self.txn {
            Some(txn) => txn.with_view(&[oid], |db, ov| {
                let obj = db.overlay_get(ov, oid)?;
                let names = db
                    .class(oid.class)?
                    .attrs
                    .iter()
                    .map(|a| a.name.clone())
                    .collect();
                Ok((obj, names))
            }),
            None => {
                let snap = self.inner.db.begin_read();
                snap.get(oid).and_then(|obj| {
                    let names = self.inner.db.with_read(|d| -> DbResult<Vec<String>> {
                        Ok(d.class(oid.class)?
                            .attrs
                            .iter()
                            .map(|a| a.name.clone())
                            .collect())
                    })?;
                    Ok((obj, names))
                })
            }
        };
        match result {
            Ok((obj, names)) => Response::OkObject {
                oid,
                parents: obj.composite_parents(),
                attrs: names.into_iter().zip(obj.attrs).collect(),
            },
            Err(e) => self.txn_error(e),
        }
    }
}

// -------------------------------------------------------------------
// Read helpers shared by the transaction and snapshot paths
// -------------------------------------------------------------------

/// Direct components: references held in the object's composite
/// attributes (same definition as `Snapshot::components_of`), as the
/// transaction owning `ov` sees them.
fn direct_components(db: &Database, ov: &Overlay, oid: Oid) -> DbResult<Vec<Oid>> {
    let obj = db.overlay_get(ov, oid)?;
    let class = db.class(oid.class)?;
    let mut out = Vec::new();
    for (def, value) in class.attrs.iter().zip(obj.attrs.iter()) {
        if def.composite.is_some() {
            out.extend(value.refs());
        }
    }
    Ok(out)
}

fn ancestors(db: &Database, ov: &Overlay, oid: Oid) -> DbResult<Vec<Oid>> {
    let mut seen = HashSet::new();
    let mut queue = db.overlay_get(ov, oid)?.composite_parents();
    let mut out = Vec::new();
    while let Some(p) = queue.pop() {
        if !seen.insert(p) {
            continue;
        }
        out.push(p);
        if let Ok(obj) = db.overlay_get(ov, p) {
            queue.extend(obj.composite_parents());
        }
    }
    out.sort();
    Ok(out)
}

fn subtree(db: &Database, ov: &Overlay, oid: Oid) -> DbResult<Vec<Oid>> {
    let mut seen = HashSet::new();
    let mut queue = vec![oid];
    let mut out = Vec::new();
    while let Some(o) = queue.pop() {
        if !seen.insert(o) {
            continue;
        }
        if !db.overlay_exists(ov, o) {
            continue;
        }
        out.push(o);
        queue.extend(direct_components(db, ov, o)?);
    }
    Ok(out)
}

/// A read view the predicate evaluator is generic over: an MVCC
/// snapshot (no transaction) or the engine read through a transaction's
/// overlay (inside `with_view`).
enum View<'a> {
    Snap(&'a Snapshot),
    Txn(&'a Database, &'a Overlay),
}

impl View<'_> {
    fn get(&self, oid: Oid) -> DbResult<Object> {
        match self {
            View::Snap(s) => s.get(oid),
            View::Txn(d, ov) => d.overlay_get(ov, oid),
        }
    }

    fn exists(&self, oid: Oid) -> DbResult<bool> {
        match self {
            View::Snap(s) => s.exists(oid),
            View::Txn(d, ov) => Ok(d.overlay_exists(ov, oid)),
        }
    }

    fn attr(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        match self {
            View::Snap(s) => s.get_attr(oid, attr),
            View::Txn(d, ov) => d.overlay_get_attr(ov, oid, attr),
        }
    }

    fn instances_of(&self, class: ClassId, deep: bool) -> DbResult<Vec<Oid>> {
        match self {
            View::Snap(s) => s.instances_of(class, deep),
            View::Txn(d, ov) => Ok(d.overlay_instances_of(ov, class, deep)),
        }
    }

    fn subtree(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        match self {
            View::Snap(s) => s.subtree_of(oid),
            View::Txn(d, ov) => subtree(d, ov, oid),
        }
    }
}

/// Classes named by `HasComponentOfClass` anywhere in the predicate
/// (their subclass sets are precomputed before evaluation).
fn collect_classes(p: &WirePredicate) -> Vec<ClassId> {
    let mut out = Vec::new();
    let mut stack = vec![p];
    while let Some(p) = stack.pop() {
        match p {
            WirePredicate::HasComponentOfClass(c) => out.push(*c),
            WirePredicate::And(ps) | WirePredicate::Or(ps) => stack.extend(ps.iter()),
            WirePredicate::Not(inner) => stack.push(inner),
            _ => {}
        }
    }
    out
}

/// Server-side `Select`: scan the extension, evaluate the wire
/// predicate per object. Mirrors `corion_core::query::Query::run`
/// semantics exactly — including [`query::compare`] for orderings —
/// but over an MVCC view instead of the single-threaded engine.
fn run_select(
    view: &View<'_>,
    class: ClassId,
    deep: bool,
    predicate: &WirePredicate,
    limit: Option<usize>,
    descendants: impl Fn(ClassId) -> HashSet<ClassId>,
) -> DbResult<Vec<Oid>> {
    let mut ctx = EvalCtx {
        subtrees: BTreeMap::new(),
        descendants: HashMap::new(),
    };
    let mut classes_needed = collect_classes(predicate);
    classes_needed.sort();
    classes_needed.dedup();
    for c in classes_needed {
        ctx.descendants.insert(c, descendants(c));
    }
    let mut out = Vec::new();
    for oid in view.instances_of(class, deep)? {
        if !view.exists(oid)? {
            continue;
        }
        if eval(view, predicate, oid, &mut ctx)? {
            out.push(oid);
            if Some(out.len()) == limit {
                break;
            }
        }
    }
    Ok(out)
}

struct EvalCtx {
    /// Cached component subtrees for `ComponentOf` targets.
    subtrees: BTreeMap<Oid, HashSet<Oid>>,
    /// Cached subclass sets (self included) for `HasComponentOfClass`.
    descendants: HashMap<ClassId, HashSet<ClassId>>,
}

fn eval(view: &View<'_>, p: &WirePredicate, oid: Oid, ctx: &mut EvalCtx) -> DbResult<bool> {
    use std::cmp::Ordering as Ord_;
    Ok(match p {
        WirePredicate::True => true,
        WirePredicate::Eq(attr, v) => &view.attr(oid, attr)? == v,
        WirePredicate::Ne(attr, v) => &view.attr(oid, attr)? != v,
        WirePredicate::Lt(attr, v) => query::compare(&view.attr(oid, attr)?, v) == Some(Ord_::Less),
        WirePredicate::Gt(attr, v) => {
            query::compare(&view.attr(oid, attr)?, v) == Some(Ord_::Greater)
        }
        WirePredicate::References(attr, target) => view.attr(oid, attr)?.references(*target),
        WirePredicate::ComponentOf(target) => {
            if !ctx.subtrees.contains_key(target) {
                let set: HashSet<Oid> = view.subtree(*target)?.into_iter().collect();
                ctx.subtrees.insert(*target, set);
            }
            oid != *target && ctx.subtrees[target].contains(&oid)
        }
        WirePredicate::HasCompositeParent => !view.get(oid)?.composite_parents().is_empty(),
        WirePredicate::HasComponentOfClass(class) => {
            let classes = ctx.descendants.get(class).cloned().unwrap_or_default();
            view.subtree(oid)?
                .into_iter()
                .any(|o| o != oid && classes.contains(&o.class))
        }
        WirePredicate::And(ps) => {
            for p in ps {
                if !eval(view, p, oid, ctx)? {
                    return Ok(false);
                }
            }
            true
        }
        WirePredicate::Or(ps) => {
            for p in ps {
                if eval(view, p, oid, ctx)? {
                    return Ok(true);
                }
            }
            false
        }
        WirePredicate::Not(inner) => !eval(view, inner, oid, ctx)?,
    })
}

// -------------------------------------------------------------------
// Wire → engine conversions
// -------------------------------------------------------------------

fn to_domain(w: &WireDomain) -> Domain {
    match w {
        WireDomain::Integer => Domain::Integer,
        WireDomain::Float => Domain::Float,
        WireDomain::Boolean => Domain::Boolean,
        WireDomain::String => Domain::String,
        WireDomain::Class(c) => Domain::Class(*c),
        WireDomain::SetOf(inner) => Domain::SetOf(Box::new(to_domain(inner))),
        WireDomain::Any => Domain::Any,
    }
}

fn to_authorization(w: WireAuth) -> Authorization {
    Authorization::new(
        if w.is_weak() {
            Strength::Weak
        } else {
            Strength::Strong
        },
        if w.is_negative() {
            Sign::Negative
        } else {
            Sign::Positive
        },
        if w.is_write() {
            AuthType::Write
        } else {
            AuthType::Read
        },
    )
}

fn to_auth_object(w: WireAuthObject) -> AuthObject {
    match w {
        WireAuthObject::Database => AuthObject::Database,
        WireAuthObject::Class(c) => AuthObject::Class(c),
        WireAuthObject::Instance(o) => AuthObject::Instance(o),
    }
}
