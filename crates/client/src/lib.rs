//! Blocking client for the CORION wire protocol.
//!
//! A thin, allocation-light wrapper over `corion-protocol`: every method
//! sends one request frame and reads one response frame (the protocol is
//! strictly request/response until [`Client::subscribe`] turns the
//! connection into a one-way event stream). See `docs/PROTOCOL.md` for
//! the wire format and `corion-server` for the semantics.
//!
//! ```no_run
//! use corion_client::Client;
//! use corion_core::Value;
//!
//! let mut c = Client::connect("127.0.0.1:4990", 0).unwrap();
//! let class = c.class_by_name("Part").unwrap();
//! c.begin().unwrap();
//! let oid = c.make(class, vec![("n".into(), Value::Int(1))], vec![]).unwrap();
//! let lsn = c.commit().unwrap();
//! println!("made {oid:?} at commit LSN {lsn}");
//! ```
//!
//! Errors carry the server's typed [`ErrorCode`]; check
//! [`ClientError::is_retryable`] before giving up — `Deadlock` in
//! particular means "retry the whole transaction", exactly like the
//! engine's own §7 victim contract.

#![warn(missing_docs)]

use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use corion_core::{ClassId, Oid, Value};
use corion_protocol::{
    decode_response, encode_request, is_timeout, read_frame, read_frame_by, write_frame, Delta,
    ErrorClass, ErrorCode, FrameError, Request, Response, WireAttrDef, WireAuth, WireAuthObject,
    WireMakeSpec, WirePredicate, MAGIC, VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or framing did).
    Io(String),
    /// The server answered with a typed error.
    Server {
        /// The typed code (`code.class()` is the retry decision).
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response the call did not expect —
    /// a protocol bug on one side or the other.
    Unexpected(String),
}

impl ClientError {
    /// True when the request may simply be retried (deadlock victim,
    /// transient storage fault) or retried after a backoff (overload).
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Server { code, .. } => !matches!(code.class(), ErrorClass::Terminal),
            _ => false,
        }
    }

    /// The server's error code, if this is a server-side error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Io(e.to_string())
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// A whole object as the server renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteObject {
    /// The object's identity.
    pub oid: Oid,
    /// Attribute values by name, in class layout order.
    pub attrs: Vec<(String, Value)>,
    /// Composite parents.
    pub parents: Vec<Oid>,
}

/// One change-stream event.
#[derive(Debug, Clone)]
pub struct Event {
    /// WAL commit LSN of the transaction (strictly increasing).
    pub commit_lsn: u64,
    /// The transaction's composite-graph deltas.
    pub deltas: Vec<Delta>,
}

/// A connected, handshaken session.
pub struct Client {
    /// Responses are read through the buffer, so a frame that arrives in
    /// one segment is one `read`; requests go straight to the socket
    /// (`get_ref`).
    conn: BufReader<TcpStream>,
    /// Server-assigned session id (diagnostics).
    session: u64,
}

type Result<T> = std::result::Result<T, ClientError>;

impl Client {
    /// Connects and performs the version handshake as `user`
    /// (0 is the superuser).
    pub fn connect(addr: impl ToSocketAddrs, user: u32) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            conn: BufReader::new(stream),
            session: 0,
        };
        match client.call(&Request::Hello {
            magic: MAGIC,
            version: VERSION,
            user,
        })? {
            Response::HelloOk { session, .. } => {
                client.session = session;
                Ok(client)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends one request and reads one response, surfacing wire-level
    /// `Error` responses as [`ClientError::Server`].
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.conn.get_ref(), &encode_request(req))?;
        let payload = read_frame(&mut self.conn)?;
        match decode_response(&payload).map_err(|e| ClientError::Io(e.to_string()))? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    // ---------------------------------------------------------------
    // Transactions
    // ---------------------------------------------------------------

    /// Opens a transaction on this session (at most one may be open).
    pub fn begin(&mut self) -> Result<()> {
        self.expect_ok(&Request::Begin)
    }

    /// Commits the open transaction, returning its commit LSN.
    pub fn commit(&mut self) -> Result<u64> {
        match self.call(&Request::Commit)? {
            Response::OkLsn(lsn) => Ok(lsn),
            other => Err(unexpected("OkLsn", &other)),
        }
    }

    /// Aborts the open transaction.
    pub fn abort(&mut self) -> Result<()> {
        self.expect_ok(&Request::Abort)
    }

    /// Runs `body` inside a transaction, retrying on retryable errors
    /// (deadlock victims) up to `attempts` times. The client-side
    /// mirror of the engine's `run_write`.
    pub fn with_txn<R>(
        &mut self,
        attempts: u32,
        mut body: impl FnMut(&mut Client) -> Result<R>,
    ) -> Result<R> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            self.begin()?;
            match body(self) {
                Ok(r) => match self.commit() {
                    Ok(_) => return Ok(r),
                    Err(e) if e.is_retryable() => last = Some(e),
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() => {
                    // The server already dropped the transaction for
                    // deadlock victims; Abort would answer
                    // TransactionState. Try, ignore failures.
                    let _ = self.abort();
                    last = Some(e);
                }
                Err(e) => {
                    let _ = self.abort();
                    return Err(e);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    // ---------------------------------------------------------------
    // Mutations
    // ---------------------------------------------------------------

    /// Creates an instance (§2.3 `make`).
    pub fn make(
        &mut self,
        class: ClassId,
        values: Vec<(String, Value)>,
        parents: Vec<(Oid, String)>,
    ) -> Result<Oid> {
        match self.call(&Request::Make {
            class,
            values,
            parents,
        })? {
            Response::OkOid(oid) => Ok(oid),
            other => Err(unexpected("OkOid", &other)),
        }
    }

    /// Assigns one attribute.
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.expect_ok(&Request::SetAttr {
            oid,
            attr: attr.into(),
            value,
        })
    }

    /// Deletes an object (cascading); returns every deleted OID.
    pub fn delete(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::Delete { oid })
    }

    /// Makes `child` a component of `parent` through `attr`.
    pub fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<()> {
        self.expect_ok(&Request::MakeComponent {
            child,
            parent,
            attr: attr.into(),
        })
    }

    /// Removes `child` from `parent`'s composite attribute `attr`.
    pub fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<()> {
        self.expect_ok(&Request::RemoveComponent {
            child,
            parent,
            attr: attr.into(),
        })
    }

    /// Clustered bulk ingest (superuser only).
    pub fn make_many(&mut self, specs: Vec<WireMakeSpec>) -> Result<Vec<Oid>> {
        self.oids(&Request::MakeMany { specs })
    }

    // ---------------------------------------------------------------
    // Reads and traversals (§3)
    // ---------------------------------------------------------------

    /// Reads a whole object.
    pub fn get(&mut self, oid: Oid) -> Result<RemoteObject> {
        match self.call(&Request::Get { oid })? {
            Response::OkObject {
                oid,
                attrs,
                parents,
            } => Ok(RemoteObject {
                oid,
                attrs,
                parents,
            }),
            other => Err(unexpected("OkObject", &other)),
        }
    }

    /// Reads one attribute.
    pub fn get_attr(&mut self, oid: Oid, attr: &str) -> Result<Value> {
        match self.call(&Request::GetAttr {
            oid,
            attr: attr.into(),
        })? {
            Response::OkValue(v) => Ok(v),
            other => Err(unexpected("OkValue", &other)),
        }
    }

    /// True if the OID resolves to a live, visible object.
    pub fn exists(&mut self, oid: Oid) -> Result<bool> {
        match self.call(&Request::Exists { oid })? {
            Response::OkBool(b) => Ok(b),
            other => Err(unexpected("OkBool", &other)),
        }
    }

    /// The extension of a class.
    pub fn instances_of(&mut self, class: ClassId, deep: bool) -> Result<Vec<Oid>> {
        self.oids(&Request::InstancesOf { class, deep })
    }

    /// Direct components of an object.
    pub fn components_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::ComponentsOf { oid })
    }

    /// Direct composite parents of an object.
    pub fn parents_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::ParentsOf { oid })
    }

    /// Every composite ancestor of an object.
    pub fn ancestors_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::AncestorsOf { oid })
    }

    /// The component subtree below an object (itself included).
    pub fn subtree_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::SubtreeOf { oid })
    }

    /// Predicate query over a class extension (§3.2). `limit` 0 means
    /// no limit.
    pub fn select(
        &mut self,
        class: ClassId,
        deep: bool,
        predicate: WirePredicate,
        limit: u32,
    ) -> Result<Vec<Oid>> {
        self.oids(&Request::Select {
            class,
            deep,
            predicate,
            limit,
        })
    }

    // ---------------------------------------------------------------
    // Catalog
    // ---------------------------------------------------------------

    /// Resolves a class name.
    pub fn class_by_name(&mut self, name: &str) -> Result<ClassId> {
        match self.call(&Request::ClassByName { name: name.into() })? {
            Response::OkClass { class, .. } => Ok(class),
            other => Err(unexpected("OkClass", &other)),
        }
    }

    /// Every class in the catalog.
    pub fn list_classes(&mut self) -> Result<Vec<(ClassId, String)>> {
        match self.call(&Request::ListClasses)? {
            Response::OkClasses(cs) => Ok(cs),
            other => Err(unexpected("OkClasses", &other)),
        }
    }

    /// Defines a class (superuser only).
    pub fn define_class(
        &mut self,
        name: &str,
        supers: Vec<String>,
        attrs: Vec<WireAttrDef>,
    ) -> Result<ClassId> {
        match self.call(&Request::DefineClass {
            name: name.into(),
            supers,
            attrs,
        })? {
            Response::OkClass { class, .. } => Ok(class),
            other => Err(unexpected("OkClass", &other)),
        }
    }

    // ---------------------------------------------------------------
    // Administration
    // ---------------------------------------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// The Prometheus rendering of every engine and server metric.
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics)? {
            Response::OkText(t) => Ok(t),
            other => Err(unexpected("OkText", &other)),
        }
    }

    /// Grants a §6 authorization (superuser only).
    pub fn grant(&mut self, user: u32, object: WireAuthObject, auth: WireAuth) -> Result<()> {
        self.expect_ok(&Request::Grant { user, object, auth })
    }

    /// Revokes an explicit grant (superuser only); false when no
    /// matching grant existed.
    pub fn revoke(&mut self, user: u32, object: WireAuthObject, auth: WireAuth) -> Result<bool> {
        match self.call(&Request::Revoke { user, object, auth })? {
            Response::OkBool(b) => Ok(b),
            other => Err(unexpected("OkBool", &other)),
        }
    }

    /// Asks the server to shut down (superuser only).
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.expect_ok(&Request::Shutdown)
    }

    /// Turns this session into a change-stream subscription
    /// (superuser only). Consumes the client: the connection becomes
    /// one-way.
    pub fn subscribe(mut self) -> Result<Subscriber> {
        match self.call(&Request::Subscribe)? {
            Response::SubscribeOk { start_lsn } => Ok(Subscriber {
                conn: self.conn,
                timeout: None,
                start_lsn,
            }),
            other => Err(unexpected("SubscribeOk", &other)),
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    fn oids(&mut self, req: &Request) -> Result<Vec<Oid>> {
        match self.call(req)? {
            Response::OkOids(oids) => Ok(oids),
            other => Err(unexpected("OkOids", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Unexpected(format!("wanted {wanted}, got {got:?}"))
}

/// The receiving half of a change stream. Events arrive in commit-LSN
/// order; every `commit_lsn` is strictly greater than
/// [`Subscriber::start_lsn`].
pub struct Subscriber {
    /// Carries over whatever the client had already buffered.
    conn: BufReader<TcpStream>,
    /// The socket's read timeout as last set; it is set only on a change.
    timeout: Option<Duration>,
    start_lsn: u64,
}

impl Subscriber {
    /// The WAL watermark at subscription time.
    pub fn start_lsn(&self) -> u64 {
        self.start_lsn
    }

    /// Blocks for the next event. A server-sent error (`SlowConsumer`,
    /// `ShuttingDown`) surfaces as [`ClientError::Server`]; a closed
    /// connection as [`ClientError::Io`].
    pub fn next_event(&mut self) -> Result<Event> {
        self.set_timeout(None)?;
        decode_event(&read_frame(&mut self.conn)?)
    }

    /// Like [`Subscriber::next_event`] but returns `Ok(None)` when no
    /// byte of the next event arrives within `timeout`. Needed by tests
    /// that assert "no further events". An event that has started
    /// arriving is read to its end, so the stream stays in step.
    pub fn next_event_timeout(&mut self, timeout: Duration) -> Result<Option<Event>> {
        self.set_timeout(Some(timeout))?;
        if let Err(e) = self.conn.fill_buf() {
            let waited = is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted;
            return if waited { Ok(None) } else { Err(e.into()) };
        }
        decode_event(&read_frame_by(&mut self.conn, None)?).map(Some)
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        if self.timeout != timeout {
            self.conn.get_ref().set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }
}

fn decode_event(payload: &[u8]) -> Result<Event> {
    match decode_response(payload).map_err(|e| ClientError::Io(e.to_string()))? {
        Response::Event { commit_lsn, deltas } => Ok(Event { commit_lsn, deltas }),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        other => Err(unexpected("Event", &other)),
    }
}
