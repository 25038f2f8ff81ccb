//! `corion-perfbench`: the repository's end-to-end benchmark.
//!
//! One run spawns `corion serve --data-dir` on a fresh directory, drives
//! one seeded workload through `corion-client` from this single process,
//! checks every answer, kills the server with SIGKILL, reopens the
//! directory and checks that every acknowledged commit survived. With
//! `--trace 1` it instead replays the same streams three ways (over the
//! wire, traced in alternate blocks of operations; in-process
//! `ConcurrentDb`; in-process core `Database`) and reports per-layer
//! metrics.
//!
//! ```text
//! corion-perfbench --workload W --seed N --seconds S --trace 0|1
//!                  --server PATH --work DIR --out FILE [--break-check]
//! ```
//!
//! Every metric is printed as `metric <name> = <value> <unit> (n=<samples>)`
//! and written, with the run's environment, to the JSON file `--out`.
//! Any failed output or durability check exits with status 1.

mod gen;
mod inproc;
mod stats;
mod wire;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use corion::client::{Client, Subscriber};
use corion::core::{Database, DbConfig, Value};
use corion::protocol::{decode_response, encode_request, Delta};
use corion::storage::{StoreConfig, PAGE_SIZE};
use corion::ConcurrentDb;

use gen::{live_counts, Cls, Obj, Op, Plan, Rng, Workload, POOL_BYTES};
use stats::{block_median, mean, median_f, percentile, ratio, Scrape};
use wire::{Conn, Ids, OpError, Server};

/// Opens of the seeded data directory per untraced run; `setup_s` is
/// their median.
const SETUP_REPS: usize = 7;
/// SIGKILL/reopen cycles after an untraced run; `recovery_s` is their
/// median (no cycle checkpoints, so each replays the same log).
const RECOVERY_REPS: usize = 5;
/// Share of `--seconds` the wire pass of a traced run gets.
const TRACE_SHARE: f64 = 0.5;
/// Operations of a client that the traced pass records, then leaves
/// untraced, in turn; `trace.overhead_ratio` compares the two kinds of
/// block.
const TRACE_BLOCK: usize = 50;
/// Blocks of each client's operations behind the latency medians (see
/// `stats::block_median`).
const P50_BLOCKS: usize = 10;
/// Idle-session pings behind `wire.ping_rtt_us`.
const PINGS: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    out: PathBuf,
    break_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut m: HashMap<String, String> = HashMap::new();
    let mut break_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--break-check" {
            break_check = true;
            continue;
        }
        let key = a
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{a}`"))?;
        let v = it.next().ok_or(format!("--{key} needs a value"))?;
        m.insert(key.to_string(), v);
    }
    let get = |k: &str| m.get(k).cloned().ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("trace")? == "1",
        server: get("server")?.into(),
        work: get("work")?.into(),
        out: get("out")?.into(),
        break_check,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("corion-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("corion-perfbench: {}: FAILED: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

#[derive(Default)]
struct Report {
    env: BTreeMap<&'static str, String>,
    metrics: Vec<(String, f64, &'static str, usize)>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name} = {value:.6} {unit} (n={samples})");
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    fn env(&mut self, key: &'static str, value: impl ToString) {
        let v = value.to_string();
        println!("env {key} = {v}");
        self.env.insert(key, v);
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut s = String::from("{\"env\": {");
        for (i, (k, v)) in self.env.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{k}\": \"{}\"",
                if i > 0 { ", " } else { "" },
                esc(v)
            );
        }
        let _ = write!(
            s,
            "}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (n, v, u, c)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\", \"samples\": {c}}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push_str("}}\n");
        std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------

/// The filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 3 && dir.starts_with(f[1]) && f[1].len() >= best.0 {
            best = (f[1].len(), f[2].to_string());
        }
    }
    best.1
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn record_env(r: &mut Report, args: &Args, plan: &Plan) -> Result<(), String> {
    let store = StoreConfig::default();
    let fs = fs_type(&args.work);
    r.env("workload", args.workload.name());
    r.env("seed", args.seed);
    r.env("seconds", args.seconds);
    r.env("trace", u8::from(args.trace));
    r.env("git_commit", git_commit());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    r.env(
        "nproc",
        cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count(),
    );
    // The CPUs this process (and the server it spawns) may run on.
    r.env(
        "cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    r.env("data_dir_fs", &fs);
    r.env("commit_policy", format!("{:?}", store.commit_policy));
    r.env("buffer_frames", store.buffer_capacity);
    r.env("shards", DbConfig::default().shards);
    r.env("pool_bytes", store.buffer_capacity * PAGE_SIZE);
    r.env("corpus_user_bytes", plan.corpus_user_bytes());
    r.env("clients", plan.streams.len());
    r.env("ops_per_client", plan.streams[0].len());
    if (store.buffer_capacity * PAGE_SIZE) as u64 != POOL_BYTES {
        return Err("engine pool size differs from the one the corpus is sized for".into());
    }
    // Only durable_commit is defined by its device: it measures real
    // fsync, which a RAM filesystem would fake.
    if args.workload == Workload::DurableCommit && matches!(fs.as_str(), "tmpfs" | "ramfs") {
        return Err(format!(
            "refusing to run: durable_commit needs a block-device filesystem, the data directory is on {fs}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

struct Live {
    server: Server,
    ids: Arc<Ids>,
    sub: Option<SubHandle>,
}

/// Spawns the server on a fresh `dir`, defines the schema, seeds the
/// corpus over the wire and shuts the server down. Returns the OIDs and
/// the seconds from spawn to the `Ping` answered after seeding
/// (`seed_s`).
fn seed_corpus(args: &Args, plan: &Plan, dir: &Path) -> Result<(Arc<Ids>, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&args.server, dir)?;
    let mut c = server.connect()?;
    let class_ids = wire::define_schema(&mut c).map_err(|e| format!("schema: {e}"))?;
    let ids = Arc::new(Ids::new(plan.classes(), class_ids));
    for batch in &plan.batches {
        wire::seed_batch(&mut c, &ids, batch)?;
    }
    c.ping().map_err(|e| format!("ping: {e}"))?;
    let seed_s = t0.elapsed().as_secs_f64();
    drop(c);
    server.shutdown();
    Ok((ids, seed_s))
}

/// Spawns the server on `dir` and times it to its first answered `Ping`
/// — the span `setup_s` and `recovery_s` measure.
fn open_server(args: &Args, dir: &Path) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&args.server, dir)?;
    server
        .connect()?
        .ping()
        .map_err(|e| format!("ping after open: {e}"))?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

impl Live {
    /// The opened server of a run, with a change-stream subscriber
    /// attached when `subscribe`.
    fn new(server: Server, ids: Arc<Ids>, subscribe: bool) -> Result<Live, String> {
        let sub = if subscribe {
            Some(SubHandle::start(&server)?)
        } else {
            None
        };
        Ok(Live { server, ids, sub })
    }
}

// ---------------------------------------------------------------------
// Change-stream subscriber
// ---------------------------------------------------------------------

/// Change-stream events as received: arrival instant and deltas.
type Events = Vec<(Instant, Vec<Delta>)>;

struct SubHandle {
    stop: Arc<AtomicBool>,
    count: Arc<AtomicUsize>,
    thread: std::thread::JoinHandle<Result<Events, String>>,
}

impl SubHandle {
    fn start(server: &Server) -> Result<SubHandle, String> {
        let mut sub: Subscriber = server
            .connect()?
            .subscribe()
            .map_err(|e| format!("subscribe: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let count = Arc::new(AtomicUsize::new(0));
        let (stop2, count2) = (stop.clone(), count.clone());
        let thread = std::thread::spawn(move || {
            let mut events = Vec::new();
            loop {
                match sub.next_event_timeout(Duration::from_millis(20)) {
                    Ok(Some(ev)) => {
                        events.push((Instant::now(), ev.deltas));
                        count2.fetch_add(1, Ordering::Release);
                    }
                    Ok(None) if stop2.load(Ordering::Acquire) => return Ok(events),
                    Ok(None) => {}
                    Err(e) => return Err(format!("change stream: {e}")),
                }
            }
        });
        Ok(SubHandle {
            stop,
            count,
            thread,
        })
    }

    /// Waits for `expected` events, or until none has arrived for half a
    /// second (the server tails its log every 20 ms), then stops.
    fn finish(self, expected: usize) -> Result<Events, String> {
        let mut seen = self.count.load(Ordering::Acquire);
        let mut quiet_since = Instant::now();
        while seen < expected && quiet_since.elapsed() < Duration::from_millis(500) {
            std::thread::sleep(Duration::from_millis(5));
            let now = self.count.load(Ordering::Acquire);
            if now != seen {
                seen = now;
                quiet_since = Instant::now();
            }
        }
        self.stop.store(true, Ordering::Release);
        self.thread
            .join()
            .map_err(|_| "subscriber panicked".to_string())?
    }
}

// ---------------------------------------------------------------------
// Timed phase over the wire
// ---------------------------------------------------------------------

struct ClientRun {
    conn: Conn,
    /// Latency of every operation, ns.
    op_ns: Vec<u64>,
    /// `(start, end)` ns of every operation since the phase epoch.
    op_spans: Vec<(u64, u64)>,
    acked: Vec<bool>,
    failed: usize,
    /// Acknowledgement instant and expected stream delta of each write.
    writes: Vec<(Instant, Delta)>,
}

struct Phase {
    clients: Vec<ClientRun>,
    elapsed_s: f64,
}

impl Phase {
    fn ops(&self) -> usize {
        self.clients.iter().map(|c| c.op_ns.len()).sum()
    }

    fn acked(&self) -> usize {
        self.clients
            .iter()
            .map(|c| c.acked.iter().filter(|&&a| a).count())
            .sum()
    }

    fn failed(&self) -> usize {
        self.clients.iter().map(|c| c.failed).sum()
    }

    fn op_ns(&self) -> Vec<u64> {
        self.clients
            .iter()
            .flat_map(|c| c.op_ns.iter().copied())
            .collect()
    }

    /// Request latencies of one wire kind, ns, one list per client.
    fn kind_ns(&self, kind: &str) -> Vec<Vec<u64>> {
        self.clients
            .iter()
            .map(|c| {
                c.conn
                    .latencies
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|&(_, ns)| ns)
                    .collect()
            })
            .collect()
    }

    /// Operation latencies, ns, one list per client.
    fn client_op_ns(&self) -> Vec<Vec<u64>> {
        self.clients.iter().map(|c| c.op_ns.clone()).collect()
    }

    /// Acknowledged operations that committed.
    fn commits(&self, plan: &Plan) -> usize {
        self.clients
            .iter()
            .zip(&plan.streams)
            .map(|(c, s)| {
                s.iter()
                    .zip(&c.acked)
                    .filter(|(op, &a)| a && op.commits())
                    .count()
            })
            .sum()
    }

    fn acked_flags(&self) -> Vec<Vec<bool>> {
        self.clients.iter().map(|c| c.acked.clone()).collect()
    }
}

/// Whether a traced pass records operation `i` of a client. Blocks of
/// `TRACE_BLOCK` operations run traced, untraced, untraced, traced, and
/// so on, so both kinds sit at the same mean position in the stream and
/// a cost that grows along it (an Asm's fan-out in `composite_ingest`)
/// does not favour either.
fn traced_op(i: usize) -> bool {
    matches!((i / TRACE_BLOCK) % 4, 0 | 3)
}

/// Whether a client needs the running model (its reads check values).
fn reads_model(w: Workload) -> bool {
    matches!(w, Workload::SubtreeRead | Workload::PointMix)
}

fn wire_phase(plan: &Plan, live: &Live, trace: bool) -> Result<Phase, String> {
    let n = plan.streams.len();
    let barrier = Barrier::new(n + 1);
    let epoch = Instant::now();
    let connections = plan
        .streams
        .iter()
        .map(|_| live.server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let (results, elapsed): (Vec<Result<ClientRun, String>>, Duration) = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .zip(connections)
            .map(|(stream, client)| {
                let barrier = &barrier;
                let ids = &live.ids;
                s.spawn(move || {
                    let mut model = if reads_model(plan.workload) {
                        plan.initial.clone()
                    } else {
                        Vec::new()
                    };
                    let mut run = ClientRun {
                        conn: Conn::new(client, epoch),
                        op_ns: Vec::with_capacity(stream.len()),
                        op_spans: Vec::new(),
                        acked: Vec::with_capacity(stream.len()),
                        failed: 0,
                        writes: Vec::new(),
                    };
                    barrier.wait();
                    for (i, op) in stream.iter().enumerate() {
                        run.conn.op = i as u32;
                        run.conn.tracing = trace && traced_op(i);
                        let t0 = Instant::now();
                        let r = wire::run_op(&mut run.conn, ids, op, &model);
                        let t1 = Instant::now();
                        run.op_ns.push((t1 - t0).as_nanos() as u64);
                        run.op_spans.push((
                            (t0 - epoch).as_nanos() as u64,
                            (t1 - epoch).as_nanos() as u64,
                        ));
                        match r {
                            Ok(()) => {
                                run.acked.push(true);
                                if let Some(d) = wire::expected_delta(op, ids) {
                                    run.writes.push((t1, d));
                                }
                                if plan.workload == Workload::PointMix {
                                    gen::apply(&mut model, op);
                                }
                            }
                            Err(OpError::Check(e)) => return Err(format!("output check: {e}")),
                            Err(OpError::Failed(e)) => {
                                if plan.workload == Workload::PointMix {
                                    // Later reads of the single mix stream
                                    // assume this write; stop here.
                                    return Err(format!("{} failed: {e}", op.kind()));
                                }
                                run.acked.push(false);
                                run.failed += 1;
                            }
                        }
                    }
                    Ok(run)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (results, start.elapsed())
    });
    let elapsed_s = elapsed.as_secs_f64();
    let clients = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Phase { clients, elapsed_s })
}

/// What the change stream delivered against what was acknowledged.
struct StreamCheck {
    /// Lag of every event matched to its write, ns.
    lags: Vec<u64>,
    /// Acknowledged commits.
    commits: usize,
    /// Events delivered.
    events: usize,
    /// Events that carry no delta of a nearby outstanding commit.
    unmatched: usize,
}

/// How far ahead of the oldest outstanding commit an event may match.
const STREAM_WINDOW: usize = 256;

/// Matches the stream of a single-writer run against its acknowledged
/// commits. The subscriber attached to the server opened on the seeded
/// directory, so the stream owes one event per acknowledged write, in
/// commit order; each event is matched to the first outstanding commit
/// whose delta it carries. Missing and unmatched events are reported,
/// not fatal: they are what `stream.events_per_commit` measures.
fn check_stream(writes: &[(Instant, Delta)], events: &Events) -> StreamCheck {
    let mut lags = Vec::with_capacity(writes.len());
    let mut next = 0;
    let mut unmatched = 0;
    for (got_at, deltas) in events {
        let window = &writes[next..writes.len().min(next + STREAM_WINDOW)];
        match window.iter().position(|(_, d)| deltas.contains(d)) {
            Some(i) => {
                lags.push(got_at.saturating_duration_since(window[i].0).as_nanos() as u64);
                next += i + 1;
            }
            None => unmatched += 1,
        }
    }
    StreamCheck {
        lags,
        commits: writes.len(),
        events: events.len(),
        unmatched,
    }
}

// ---------------------------------------------------------------------
// Durability check
// ---------------------------------------------------------------------

/// Checks a (reopened) server against the expected state: per-class
/// counts, every written composite's components, every written object's
/// values, and a seeded sample of the untouched rest.
fn verify(c: &mut Client, ids: &Ids, model: &[Obj], seed: u64) -> Result<(), String> {
    let err = |e: corion::ClientError| format!("verify: {e}");
    let want = live_counts(model);
    for cls in Cls::ALL {
        let got = c.instances_of(ids.class_id(cls), false).map_err(err)?.len();
        if got != want[&cls] {
            return Err(format!(
                "{} instances: {got} after reopen, {} acknowledged",
                cls.name(),
                want[&cls]
            ));
        }
    }
    let mut rng = Rng::new(seed ^ 0x5eed);
    let sample = |o: &Obj, rng: &mut Rng| o.touched || rng.below(16) == 0;
    for (i, o) in model.iter().enumerate() {
        if !o.live {
            if o.touched && c.exists(ids.oid(i)).map_err(err)? {
                return Err(format!("object {i} was deleted but exists after reopen"));
            }
            continue;
        }
        let parent_written = o.class != Cls::Part && o.children.iter().any(|&k| model[k].touched);
        if parent_written || (o.class != Cls::Part && sample(o, &mut rng)) {
            let mut got = c.components_of(ids.oid(i)).map_err(err)?;
            got.sort();
            let kids: Vec<usize> = o
                .children
                .iter()
                .copied()
                .filter(|&k| model[k].live)
                .collect();
            if got != ids.expect_set(&kids) {
                return Err(format!(
                    "object {i}: {} components after reopen, {} acknowledged",
                    got.len(),
                    kids.len()
                ));
            }
        }
        if sample(o, &mut rng) {
            let obj = c.get(ids.oid(i)).map_err(err)?;
            let attr = |name: &str| {
                obj.attrs
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.clone())
            };
            let ok = attr(gen::PAYLOAD) == Some(Value::Str(o.payload.clone()))
                && o.n.is_none_or(|n| attr(gen::N) == Some(Value::Int(n)));
            if !ok {
                return Err(format!(
                    "object {i}: values after reopen differ from the last acknowledged commit"
                ));
            }
        }
    }
    Ok(())
}

/// SIGKILLs the server, reopens its directory and times the reopened
/// server's first `Ping`.
fn kill_and_reopen(args: &Args, server: Server, dir: &Path) -> Result<(Server, f64), String> {
    server.kill();
    open_server(args, dir)
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let share = if args.trace { TRACE_SHARE } else { 1.0 };
    let plan = Plan::generate(
        args.workload,
        args.seed,
        args.workload.ops_per_client(args.seconds * share),
    );
    let mut report = Report::default();
    record_env(&mut report, args, &plan)?;
    let result = if args.trace {
        traced(args, &plan, &mut report)
    } else {
        untraced(args, &plan, &mut report)
    };
    let _ = std::fs::remove_dir_all(args.work.join("data"));
    result?;
    report.write(&args.out)
}

fn untraced(args: &Args, plan: &Plan, r: &mut Report) -> Result<(), String> {
    let dir = wire::fresh_dir(&args.work, "data/wire")?;
    let (ids, seed_s) = seed_corpus(args, plan, &dir)?;
    corpus_env(r, plan, &dir)?;
    // Set-up proper: the server opening the seeded directory, each time
    // after a clean shutdown, so every open finds the same files.
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = server.take() {
            prev.shutdown();
        }
        let (s, t) = open_server(args, &dir)?;
        setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one open");
    let mut live = Live::new(server, ids, plan.workload == Workload::PointMix)?;
    let phase = wire_phase(plan, &live, false)?;
    let writes: Vec<(Instant, Delta)> = phase
        .clients
        .iter()
        .flat_map(|c| c.writes.iter().cloned())
        .collect();
    let stream = match live.sub.take() {
        Some(sub) => {
            let events = sub.finish(writes.len())?;
            Some(check_stream(&writes, &events))
        }
        None => None,
    };

    let ops = phase.ops();
    r.attempted = ops;
    r.failed = phase.failed();
    r.metric("setup_s", median_f(&setups), "s", setups.len());
    r.metric("seed_s", seed_s, "s", 1);
    r.metric(
        "ops_per_s",
        phase.acked() as f64 / phase.elapsed_s,
        "op/s",
        phase.acked(),
    );
    let op_ns = phase.op_ns();
    r.metric(
        "op_p50_us",
        block_median(&phase.client_op_ns(), P50_BLOCKS) / 1e3,
        "us",
        op_ns.len(),
    );
    let p99 = percentile(&op_ns, 0.99);
    r.metric("client.op_p99_us", p99 / 1e3, "us", op_ns.len());
    let beyond = op_ns.iter().filter(|&&ns| ns as f64 > p99).count();
    r.metric(
        "client.samples_beyond_p99",
        beyond as f64,
        "count",
        op_ns.len(),
    );
    r.metric(
        "failed_frac",
        ratio(r.failed as f64, ops as f64),
        "ratio",
        ops,
    );
    kind_metrics(r, plan.workload, &phase);
    if let Some(st) = &stream {
        r.metric(
            "stream_lag_p50_ms",
            percentile(&st.lags, 0.5) / 1e6,
            "ms",
            st.lags.len(),
        );
        r.metric(
            "stream.events_per_commit",
            ratio(st.events as f64, st.commits as f64),
            "ratio",
            st.commits,
        );
        r.metric(
            "stream.unmatched_events",
            st.unmatched as f64,
            "count",
            st.events,
        );
    }

    let ids = live.ids.clone();
    let (mut server, first) = kill_and_reopen(args, live.server, &dir)?;
    let mut recoveries = vec![first];
    for _ in 1..RECOVERY_REPS {
        let (s, t) = kill_and_reopen(args, server, &dir)?;
        server = s;
        recoveries.push(t);
    }
    r.metric("recovery_s", median_f(&recoveries), "s", recoveries.len());
    let mut expected = plan.expected(&phase.acked_flags());
    if args.break_check {
        // Self-test hook: a deliberately wrong expected count must fail
        // the durability check.
        expected.push(Obj {
            class: Cls::Part,
            payload: String::new(),
            n: None,
            children: vec![],
            live: true,
            touched: false,
        });
    }
    let mut c = server.connect()?;
    verify(&mut c, &ids, &expected, args.seed)?;
    let user: u64 = expected
        .iter()
        .filter(|o| o.live)
        .map(Obj::user_bytes)
        .sum();
    r.metric(
        "space_amp",
        wire::dir_bytes(&dir) as f64 / user as f64,
        "ratio",
        1,
    );
    server.shutdown();
    println!(
        "checks passed: {} ops, {} failed, durability after SIGKILL verified",
        ops, r.failed
    );
    Ok(())
}

/// Records the corpus size against the pool, and refuses a read corpus
/// that would fit in it.
fn corpus_env(r: &mut Report, plan: &Plan, dir: &Path) -> Result<(), String> {
    let bytes = wire::dir_bytes(dir);
    r.env("corpus_dir_bytes", bytes);
    r.env(
        "corpus_over_pool",
        format!("{:.2}", bytes as f64 / POOL_BYTES as f64),
    );
    if plan.workload == Workload::SubtreeRead && bytes < 8 * POOL_BYTES {
        return Err(format!(
            "subtree_read corpus is {bytes} bytes, under 8x the pool"
        ));
    }
    Ok(())
}

/// Per-request-kind medians (block medians, as `op_p50_us`), on the
/// workloads where the kind occurs (`SetAttr` only as an autocommit).
fn kind_metrics(r: &mut Report, w: Workload, phase: &Phase) {
    let kinds = [
        ("commit_p50_us", "Commit", w != Workload::PointMix),
        ("subtree_p50_us", "SubtreeOf", true),
        ("get_p50_us", "Get", true),
        ("set_attr_p50_us", "SetAttr", w == Workload::PointMix),
        ("delete_p50_us", "Delete", true),
    ];
    for (name, kind, applies) in kinds {
        let ns = phase.kind_ns(kind);
        let samples: usize = ns.iter().map(Vec::len).sum();
        if applies && samples > 0 {
            r.metric(name, block_median(&ns, P50_BLOCKS) / 1e3, "us", samples);
        }
    }
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------

fn traced(args: &Args, plan: &Plan, r: &mut Report) -> Result<(), String> {
    // Pass A: the wire run, traced in alternate blocks of operations, with
    // a subscriber attached and registry scrapes at its boundaries.
    let dir = wire::fresh_dir(&args.work, "data/traced")?;
    let (ids, _) = seed_corpus(args, plan, &dir)?;
    let (server, _) = open_server(args, &dir)?;
    let mut live = Live::new(server, ids, true)?;
    let mut admin = live.server.connect()?;
    let ping_ns = idle_pings(&live.server)?;
    let before = Scrape::parse(&admin.metrics().map_err(|e| e.to_string())?);
    let phase = wire_phase(plan, &live, true)?;
    let after = Scrape::parse(&admin.metrics().map_err(|e| e.to_string())?);
    drop(admin);
    let commits = phase.commits(plan) as f64;
    let events = live
        .sub
        .take()
        .expect("traced run subscribes")
        .finish(commits as usize)?;
    let ids = live.ids.clone();
    let (server, _) = kill_and_reopen(args, live.server, &dir)?;
    let reopened = Scrape::parse(&server.connect()?.metrics().map_err(|e| e.to_string())?);
    let mut c = server.connect()?;
    verify(
        &mut c,
        &ids,
        &plan.expected(&phase.acked_flags()),
        args.seed,
    )?;
    drop(c);
    server.shutdown();

    // Pass B: ConcurrentDb in-process, same streams, same thread count.
    let dir = wire::fresh_dir(&args.work, "data/concurrent")?;
    let (db, cids) = inproc::open_seeded(&dir, plan)?;
    let conc_ns = conc_pass(plan, ConcurrentDb::from_database(db), &cids)?;

    // Pass C: core Database, single-threaded, streams interleaved.
    let dir = wire::fresh_dir(&args.work, "data/core")?;
    let (db, kids) = inproc::open_seeded(&dir, plan)?;
    let core = core_pass(plan, db, &kids)?;

    let ops = phase.ops() as f64;
    r.attempted = phase.ops();
    r.failed = phase.failed();
    let wire_ns = phase.op_ns();
    let requests: u64 = phase.clients.iter().map(|c| c.conn.requests).sum();

    let rates = BlockRates::of(&phase);
    r.metric(
        "trace.overhead_ratio",
        ratio(rates.traced, rates.untraced),
        "ratio",
        rates.blocks,
    );
    r.metric(
        "trace.untraced_ops_per_s",
        rates.untraced,
        "op/s",
        phase.ops() - rates.traced_ops,
    );
    r.metric(
        "trace.traced_ops_per_s",
        rates.traced,
        "op/s",
        rates.traced_ops,
    );
    r.metric(
        "trace.bookkeeping_frac",
        ratio(rates.trace_ns, rates.traced_ns),
        "ratio",
        rates.traced_ops,
    );
    r.metric(
        "client.op_p99_us",
        percentile(&wire_ns, 0.99) / 1e3,
        "us",
        wire_ns.len(),
    );
    r.metric(
        "client.requests_per_op",
        requests as f64 / ops,
        "count",
        phase.ops(),
    );
    r.metric("client.op_us", mean(&wire_ns) / 1e3, "us", wire_ns.len());
    r.metric(
        "wire.ping_rtt_us",
        percentile(&ping_ns, 0.5) / 1e3,
        "us",
        ping_ns.len(),
    );
    protocol_metrics(r, &phase, rates.traced_ops as f64);
    r.metric(
        "server.self_us_per_op",
        (mean(&wire_ns) - mean(&conc_ns)) / 1e3,
        "us",
        wire_ns.len(),
    );
    // The closing scrape counts itself.
    r.metric(
        "server.requests_per_op",
        (after.delta(&before, "corion_server_requests_total") - 1.0) / ops,
        "count",
        phase.ops(),
    );
    r.metric(
        "server.errors",
        after.delta(&before, "corion_server_errors_total"),
        "count",
        phase.ops(),
    );
    r.metric(
        "stream.events_per_commit",
        ratio(events.len() as f64, commits),
        "ratio",
        events.len(),
    );

    let begins = after.delta(&before, "corion_mvcc_txn_begins_total");
    r.metric(
        "concurrent.op_us",
        mean(&conc_ns) / 1e3,
        "us",
        conc_ns.len(),
    );
    r.metric(
        "concurrent.self_us_per_op",
        (mean(&conc_ns) - mean(&core.op_ns)) / 1e3,
        "us",
        conc_ns.len(),
    );
    r.metric(
        "concurrent.retry_frac",
        ratio(after.delta(&before, "corion_mvcc_txn_aborts_total"), begins),
        "ratio",
        begins as usize,
    );
    r.metric(
        "concurrent.latch_wait_us_per_op",
        after.delta(&before, "corion_shard_latch_wait_ns_sum") / 1e3 / ops,
        "us",
        phase.ops(),
    );
    r.metric(
        "concurrent.latch_hold_us_per_op",
        after.delta(&before, "corion_shard_latch_hold_ns_sum") / 1e3 / ops,
        "us",
        phase.ops(),
    );
    r.metric(
        "concurrent.versions_per_commit",
        ratio(
            after.delta(&before, "corion_mvcc_versions_published_total"),
            commits,
        ),
        "count",
        commits as usize,
    );
    r.metric(
        "concurrent.preimages_per_commit",
        ratio(
            after.delta(&before, "corion_mvcc_preimages_seeded_total"),
            commits,
        ),
        "count",
        commits as usize,
    );

    r.metric(
        "lock.acquires_per_txn",
        ratio(after.delta(&before, "corion_lock_acquires_total"), begins),
        "count",
        begins as usize,
    );
    r.metric(
        "lock.waits_per_txn",
        ratio(after.delta(&before, "corion_lock_waits_total"), begins),
        "count",
        begins as usize,
    );
    r.metric(
        "lock.wait_us_per_txn",
        ratio(
            after.delta(&before, "corion_lock_wait_latency_ns_sum") / 1e3,
            begins,
        ),
        "us",
        begins as usize,
    );
    r.metric(
        "lock.deadlocks",
        after.delta(&before, "corion_lock_deadlocks_total"),
        "count",
        begins as usize,
    );

    r.metric(
        "core.op_us",
        mean(&core.op_ns) / 1e3,
        "us",
        core.op_ns.len(),
    );
    r.metric(
        "core.traversal_cache_hit_ratio",
        core.cache_hit_ratio,
        "ratio",
        core.op_ns.len(),
    );
    r.metric(
        "buffer.hit_ratio",
        core.buffer_hit_ratio,
        "ratio",
        core.op_ns.len(),
    );
    let core_ops = core.op_ns.len() as f64;
    r.metric(
        "buffer.evictions_per_op",
        core.evictions / core_ops,
        "count",
        core.op_ns.len(),
    );
    r.metric(
        "disk.page_reads_per_op",
        core.page_reads / core_ops,
        "count",
        core.op_ns.len(),
    );
    r.metric(
        "disk.page_writes_per_op",
        core.page_writes / core_ops,
        "count",
        core.op_ns.len(),
    );

    let wal_bytes = after.delta(&before, "corion_wal_append_bytes_total");
    r.metric(
        "wal.bytes_per_txn",
        ratio(wal_bytes, commits),
        "bytes",
        commits as usize,
    );
    r.metric(
        "wal.bytes_per_user_byte",
        ratio(wal_bytes, user_bytes_written(plan, &phase) as f64),
        "ratio",
        commits as usize,
    );
    r.metric(
        "wal.records_per_txn",
        ratio(
            after.delta(&before, "corion_wal_append_records_total"),
            commits,
        ),
        "count",
        commits as usize,
    );
    r.metric(
        "wal.commit_us_mean",
        after.hist_mean(&before, "corion_storage_commit_latency_ns") / 1e3,
        "us",
        after.delta(&before, "corion_storage_commit_latency_ns_count") as usize,
    );
    let checkpoints = after.delta(&before, "corion_wal_checkpoints_total");
    r.metric(
        "wal.checkpoints_per_1k_txn",
        ratio(checkpoints * 1e3, commits),
        "count",
        checkpoints as usize,
    );
    r.metric(
        "wal.checkpoint_ms_mean",
        after.hist_mean(&before, "corion_wal_checkpoint_latency_ns") / 1e6,
        "ms",
        checkpoints as usize,
    );
    r.metric(
        "device.fsyncs_per_commit",
        ratio(
            after.delta(&before, "corion_storage_device_fsyncs_total"),
            commits,
        ),
        "count",
        commits as usize,
    );
    r.metric(
        "device.flush_us_mean",
        after.hist_mean(&before, "corion_wal_flush_latency_ns") / 1e3,
        "us",
        after.delta(&before, "corion_wal_flush_latency_ns_count") as usize,
    );
    r.metric(
        "device.reopen_ms",
        reopened.hist_mean(
            &Scrape::default(),
            "corion_storage_device_reopen_latency_ns",
        ) / 1e6,
        "ms",
        reopened.get("corion_storage_device_reopen_latency_ns_count") as usize,
    );

    write_spans(args, &phase)?;
    println!(
        "checks passed: {} traced ops, {} failed, durability after SIGKILL verified",
        phase.ops(),
        r.failed
    );
    Ok(())
}

/// Operation rates of the traced and the untraced blocks of a traced
/// pass. Per client, each block's rate is its operations over the sum of
/// their latencies; a kind's rate is the median over its blocks, summed
/// over clients. Both kinds run on the same server and data, alternating,
/// so their ratio isolates tracing from the host's drift.
struct BlockRates {
    traced: f64,
    untraced: f64,
    traced_ops: usize,
    blocks: usize,
    /// Latency of the traced operations, and the part of it spent
    /// recording their calls, ns.
    traced_ns: f64,
    trace_ns: f64,
}

impl BlockRates {
    fn of(phase: &Phase) -> BlockRates {
        let mut out = BlockRates {
            traced: 0.0,
            untraced: 0.0,
            traced_ops: 0,
            blocks: 0,
            traced_ns: 0.0,
            trace_ns: 0.0,
        };
        for c in &phase.clients {
            out.trace_ns += c.conn.trace_ns as f64;
            let (mut traced, mut untraced) = (Vec::new(), Vec::new());
            for (b, block) in c.op_ns.chunks(TRACE_BLOCK).enumerate() {
                let rate = ratio(block.len() as f64 * 1e9, block.iter().sum::<u64>() as f64);
                if traced_op(b * TRACE_BLOCK) {
                    traced.push(rate);
                    out.traced_ops += block.len();
                    out.traced_ns += block.iter().sum::<u64>() as f64;
                } else {
                    untraced.push(rate);
                }
            }
            out.blocks += traced.len() + untraced.len();
            out.traced += median_f(&traced);
            out.untraced += median_f(&untraced);
        }
        out
    }
}

fn idle_pings(server: &Server) -> Result<Vec<u64>, String> {
    let mut c = server.connect()?;
    (0..PINGS)
        .map(|_| {
            let t = Instant::now();
            c.ping().map_err(|e| format!("ping: {e}"))?;
            Ok(t.elapsed().as_nanos() as u64)
        })
        .collect()
}

/// Encode and decode cost of the run's own recorded frames (best of 3
/// passes over all of them), and their bytes.
fn protocol_metrics(r: &mut Report, phase: &Phase, ops: f64) {
    let calls: Vec<&wire::Call> = phase
        .clients
        .iter()
        .flat_map(|c| c.conn.calls.iter())
        .collect();
    let mut enc = f64::MAX;
    let mut dec = f64::MAX;
    let mut bytes = 0usize;
    for _ in 0..3 {
        let t = Instant::now();
        bytes = calls
            .iter()
            .map(|c| encode_request(&c.req).len())
            .sum::<usize>();
        enc = enc.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let ok = calls
            .iter()
            .filter(|c| decode_response(&c.resp_bytes).is_ok())
            .count();
        dec = dec.min(t.elapsed().as_nanos() as f64);
        assert_eq!(ok, calls.len(), "recorded responses decode");
    }
    bytes += calls.iter().map(|c| c.resp_bytes.len()).sum::<usize>();
    r.metric("protocol.encode_ns_per_op", enc / ops, "ns", calls.len());
    r.metric("protocol.decode_ns_per_op", dec / ops, "ns", calls.len());
    r.metric(
        "protocol.bytes_per_op",
        bytes as f64 / ops,
        "bytes",
        calls.len(),
    );
}

/// User attribute bytes the acknowledged writes of a phase carried.
fn user_bytes_written(plan: &Plan, phase: &Phase) -> u64 {
    let mut total = 0;
    for (stream, run) in plan.streams.iter().zip(&phase.clients) {
        for (op, &ok) in stream.iter().zip(&run.acked) {
            if !ok {
                continue;
            }
            total += match op {
                Op::IngestTxn { asm, parts, .. } | Op::MakeSmall { asm, parts } => {
                    std::iter::once((*asm, Cls::Asm))
                        .chain(parts.iter().map(|&p| (p, Cls::Part)))
                        .map(|(id, c)| {
                            let (p, n) = gen::stream_values(id, c);
                            p.len() as u64 + if n.is_some() { 8 } else { 0 }
                        })
                        .sum::<u64>()
                }
                Op::SetAttr { value, .. } => value.len() as u64,
                Op::DurableTxn { .. } => 16,
                _ => 0,
            };
        }
    }
    total
}

/// Writes the traced pass's spans: one JSON line per traced operation
/// with its request spans (ns since the phase began).
fn write_spans(args: &Args, phase: &Phase) -> Result<(), String> {
    let path = args.out.with_extension("spans.jsonl");
    let mut s = String::new();
    for (ci, c) in phase.clients.iter().enumerate() {
        let calls = &c.conn.calls;
        let mut k = 0;
        for (op, &(start, end)) in c.op_spans.iter().enumerate() {
            if !traced_op(op) {
                continue;
            }
            let _ = write!(
                s,
                "{{\"client\":{ci},\"op\":{op},\"start_ns\":{start},\"end_ns\":{end},\"calls\":["
            );
            let mut first = true;
            while k < calls.len() && calls[k].op as usize == op {
                let call = &calls[k];
                let _ = write!(
                    s,
                    "{}[\"{}\",{},{}]",
                    if first { "" } else { "," },
                    call.kind,
                    call.start_ns,
                    call.end_ns
                );
                first = false;
                k += 1;
            }
            s.push_str("]}\n");
        }
    }
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn conc_pass(plan: &Plan, cdb: ConcurrentDb, ids: &Ids) -> Result<Vec<u64>, String> {
    let n = plan.streams.len();
    let barrier = Barrier::new(n);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .map(|stream| {
                let (barrier, cdb, out) = (&barrier, &cdb, &out);
                s.spawn(move || -> Result<(), String> {
                    let mut model = if reads_model(plan.workload) {
                        plan.initial.clone()
                    } else {
                        Vec::new()
                    };
                    let mut ns = Vec::with_capacity(stream.len());
                    barrier.wait();
                    for op in stream {
                        let t = Instant::now();
                        match inproc::conc_op(cdb, ids, op, &model) {
                            Ok(()) => {}
                            Err(OpError::Check(e)) => return Err(format!("in-process check: {e}")),
                            Err(OpError::Failed(e)) => {
                                return Err(format!("in-process {}: {e}", op.kind()))
                            }
                        }
                        ns.push(t.elapsed().as_nanos() as u64);
                        if plan.workload == Workload::PointMix {
                            gen::apply(&mut model, op);
                        }
                    }
                    out.lock().expect("poisoned").extend(ns);
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err("peel thread panicked".into()))
        })
    })?;
    Ok(out.into_inner().expect("poisoned"))
}

struct CoreRun {
    op_ns: Vec<u64>,
    cache_hit_ratio: f64,
    buffer_hit_ratio: f64,
    evictions: f64,
    page_reads: f64,
    page_writes: f64,
}

fn core_pass(plan: &Plan, mut db: Database, ids: &Ids) -> Result<CoreRun, String> {
    let counter = |db: &Database, name: &str| db.metrics_snapshot().counter(name) as f64;
    let hits0 = counter(&db, "corion_traversal_cache_hits_total");
    let misses0 = counter(&db, "corion_traversal_cache_misses_total");
    let (b0, d0) = (db.buffer_stats(), db.disk_stats());
    let mut model = if reads_model(plan.workload) {
        plan.initial.clone()
    } else {
        Vec::new()
    };
    let longest = plan.streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut op_ns = Vec::with_capacity(plan.total_ops());
    for i in 0..longest {
        for stream in &plan.streams {
            let Some(op) = stream.get(i) else { continue };
            let t = Instant::now();
            match inproc::core_op(&mut db, ids, op, &model) {
                Ok(()) => {}
                Err(OpError::Check(e)) => return Err(format!("core check: {e}")),
                Err(OpError::Failed(e)) => return Err(format!("core {}: {e}", op.kind())),
            }
            op_ns.push(t.elapsed().as_nanos() as u64);
            if plan.workload == Workload::PointMix {
                gen::apply(&mut model, op);
            }
        }
    }
    let (b1, d1) = (db.buffer_stats(), db.disk_stats());
    let hits = counter(&db, "corion_traversal_cache_hits_total") - hits0;
    let misses = counter(&db, "corion_traversal_cache_misses_total") - misses0;
    let bh = (b1.hits - b0.hits) as f64;
    let bm = (b1.misses - b0.misses) as f64;
    Ok(CoreRun {
        op_ns,
        cache_hit_ratio: ratio(hits, hits + misses),
        buffer_hit_ratio: ratio(bh, bh + bm),
        evictions: (b1.evictions - b0.evictions) as f64,
        page_reads: (d1.reads - d0.reads) as f64,
        page_writes: (d1.writes - d0.writes) as f64,
    })
}
