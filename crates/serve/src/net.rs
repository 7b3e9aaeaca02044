//! The TCP front-end: an `ocr-wire-v1` listener that feeds the
//! deterministic engine through the same [`crate::Intake`] trait the
//! spool uses, so journaling, recovery, and scheduling are reused
//! unchanged — a TCP-submitted job is byte-identical to the same job
//! spooled on disk.
//!
//! Robustness is the point of this module, not the transport:
//!
//! * **Bounded connections** — at most `max_conns` handler threads;
//!   while the pool is full the acceptor simply stops accepting, so
//!   excess clients queue in the kernel backlog (backpressure) instead
//!   of spawning unbounded work.
//! * **Deadlines** — every read and write carries a timeout; a frame
//!   that does not start within `idle_timeout_ms` or finish within
//!   `io_timeout_ms` ends the connection with a typed `error timeout`
//!   (the slow-loris answer), counted in `net.timeouts`.
//! * **Typed wire failures** — torn, oversized, and checksum-bad
//!   frames are [`ocr_io::wire::WireError`]s answered as `error
//!   <kind>`; a handler panic is caught per-connection. The daemon is
//!   never poisoned by a hostile byte stream.
//! * **Per-tenant quotas** — a token bucket per `tenant` (the
//!   anonymous tenant is `-`) sheds submissions above the configured
//!   rate/burst with `rejected <name> quota retry-after <ms>`.
//! * **Load shedding** — a full pending queue, or an engine whose
//!   global step budget has drained ([`crate::Intake::budget_exhausted`]),
//!   answers `rejected … overload retry-after <ms>` instead of
//!   accepting work the engine cannot serve.
//!
//! Submitted chips are staged as `.ocr` files in a durable staging
//! directory and the job's reload base is journaled, so a `--journal`
//! kill-restart recovers TCP submissions exactly like spooled ones.
//! `accepted` is only answered after the engine has durably accepted
//! the batch (journaled and fsynced) — the ack path of the intake
//! protocol.

use crate::intake::load_job;
use crate::{Intake, JobInput, ServeError};
use ocr_exec::Ambient;
use ocr_io::wire::{
    parse_request, read_frame, read_magic, response_payload, write_frame, write_magic,
    RejectReason, Request, Response, WireError,
};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-tenant token-bucket quota: sustained `rate_per_sec` submissions
/// per second with bursts up to `burst`. A rate of 0 never refills —
/// each tenant gets exactly `burst` submissions for the lifetime of
/// the listener (useful for deterministic tests and hard caps).
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Tokens refilled per second.
    pub rate_per_sec: u64,
    /// Bucket capacity (maximum burst).
    pub burst: u64,
}

/// Configuration of the TCP front-end.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port —
    /// read the result back from [`NetIntake::local_addr`]).
    pub addr: String,
    /// Maximum concurrent connections; excess clients wait in the
    /// kernel backlog.
    pub max_conns: usize,
    /// Per-read/per-write deadline once a frame has started, in ms.
    pub io_timeout_ms: u64,
    /// How long a connection may sit between frames before it is
    /// closed, in ms.
    pub idle_timeout_ms: u64,
    /// Maximum frame payload size in bytes; larger headers are
    /// rejected before any payload is read.
    pub max_frame: usize,
    /// Maximum submissions queued ahead of the engine; beyond this,
    /// submissions are shed with `rejected … overload`.
    pub max_pending: usize,
    /// How long an idle engine poll blocks waiting for submissions, in
    /// ms (bounds shutdown and co-intake polling latency).
    pub poll_ms: u64,
    /// Directory where submitted chips are staged as `.ocr` files.
    /// Must be durable when the service journals (recovery reloads
    /// chips from here). `None` stages under a temp directory that is
    /// removed when the intake drops.
    pub stage: Option<PathBuf>,
    /// Per-tenant admission quota; `None` admits everyone.
    pub quota: Option<QuotaConfig>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 8,
            io_timeout_ms: 5000,
            idle_timeout_ms: 10_000,
            max_frame: ocr_io::wire::DEFAULT_MAX_FRAME,
            max_pending: 64,
            poll_ms: 200,
            stage: None,
            quota: None,
        }
    }
}

/// One submission staged and loaded, waiting for the engine: the input
/// plus the channel that tells its handler the engine durably accepted
/// it (sender dropped = service closed before acceptance).
struct Pending {
    input: JobInput,
    done: Sender<()>,
}

/// Integer token bucket in milli-tokens (1 token = 1000), refilled
/// from elapsed wall-clock milliseconds.
struct Bucket {
    milli: u64,
    last: Instant,
}

impl Bucket {
    fn take(&mut self, quota: &QuotaConfig, now: Instant) -> Result<(), u64> {
        let elapsed_ms = now.duration_since(self.last).as_millis() as u64;
        self.last = now;
        self.milli = self
            .milli
            .saturating_add(elapsed_ms.saturating_mul(quota.rate_per_sec))
            .min(quota.burst.saturating_mul(1000));
        if self.milli >= 1000 {
            self.milli -= 1000;
            return Ok(());
        }
        // Milliseconds until a whole token exists.
        let needed = 1000 - self.milli;
        let retry_after = if quota.rate_per_sec == 0 {
            60_000
        } else {
            needed.div_ceil(quota.rate_per_sec).max(1)
        };
        Err(retry_after)
    }
}

/// State shared by the acceptor, the handler threads, and the intake.
struct Queue {
    pending: Vec<Pending>,
    buckets: HashMap<String, Bucket>,
    /// `try_clone`d handles of live connections, so teardown can
    /// `shutdown()` them and unblock handlers immediately.
    streams: HashMap<u64, TcpStream>,
}

struct Shared {
    queue: Mutex<Queue>,
    arrived: Condvar,
    shutdown: AtomicBool,
    /// The engine's global step budget is gone: shed new submissions.
    shed: AtomicBool,
    conns: AtomicUsize,
    submissions: AtomicU64,
    config: NetConfig,
    stage: PathBuf,
    /// The thread context captured at bind (telemetry collector, fault
    /// plan, run control, pool width), installed in every spawned thread.
    ambient: Ambient,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn closing(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.arrived.notify_all();
    }
}

/// The TCP [`crate::Intake`]: owns the listener, the acceptor thread,
/// and the staged submissions queue.
pub struct NetIntake {
    shared: Arc<Shared>,
    local: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    /// Senders of the last polled batch, released on [`Intake::ack`].
    awaiting: Vec<Sender<()>>,
    /// The stage directory was created by us under temp: remove it on
    /// drop.
    own_stage: bool,
}

/// The five service counters of the network front-end, declared at 0
/// when the listener binds so `serve-stats.json` always carries them.
pub const NET_COUNTERS: [&str; 5] = [
    "net.conns",
    "net.frames",
    "net.rejected.quota",
    "net.rejected.overload",
    "net.timeouts",
];

impl NetIntake {
    /// Binds the listener and starts the acceptor thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound or the
    /// staging directory cannot be created.
    pub fn bind(config: NetConfig) -> Result<NetIntake, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Io {
            path: PathBuf::from(&config.addr),
            message: format!("bind: {e}"),
        })?;
        let local = listener.local_addr().map_err(|e| ServeError::Io {
            path: PathBuf::from(&config.addr),
            message: format!("local_addr: {e}"),
        })?;
        listener.set_nonblocking(true).map_err(|e| ServeError::Io {
            path: PathBuf::from(&config.addr),
            message: format!("set_nonblocking: {e}"),
        })?;
        static STAGE_ID: AtomicU64 = AtomicU64::new(0);
        let (stage, own_stage) = match &config.stage {
            Some(dir) => (dir.clone(), false),
            None => {
                let n = STAGE_ID.fetch_add(1, Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("ocr-net-stage-{}-{n}", std::process::id()));
                (dir, true)
            }
        };
        std::fs::create_dir_all(&stage).map_err(|e| ServeError::Io {
            path: stage.clone(),
            message: e.to_string(),
        })?;
        for name in NET_COUNTERS {
            ocr_obs::count(name, 0);
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                buckets: HashMap::new(),
                streams: HashMap::new(),
            }),
            arrived: Condvar::new(),
            shutdown: AtomicBool::new(false),
            shed: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            submissions: AtomicU64::new(0),
            config,
            stage,
            ambient: Ambient::capture(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ocr-net-accept".to_string())
                .spawn(move || {
                    shared
                        .ambient
                        .clone()
                        .enter(|| accept_loop(listener, shared))
                })
                .map_err(|e| ServeError::Io {
                    path: PathBuf::from("ocr-net-accept"),
                    message: format!("spawn: {e}"),
                })?
        };
        Ok(NetIntake {
            shared,
            local,
            acceptor: Some(acceptor),
            awaiting: Vec::new(),
            own_stage,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops accepting new work: in-flight submissions are still
    /// delivered and acknowledged, then [`crate::Intake::poll`]
    /// returns `None` and the engine drains. Used by the wire
    /// `shutdown` request and by [`PairedIntake`] when its spool half
    /// closes.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// Moves every queued submission into a batch, parking the ack
/// senders in `awaiting` until the engine acknowledges.
fn drain_pending(queue: &mut Queue, awaiting: &mut Vec<Sender<()>>) -> Vec<JobInput> {
    let mut batch = Vec::new();
    for pending in queue.pending.drain(..) {
        batch.push(pending.input);
        awaiting.push(pending.done);
    }
    batch
}

impl Intake for NetIntake {
    fn poll(&mut self, idle: bool) -> Option<Vec<JobInput>> {
        let mut queue = self.shared.lock();
        let batch = drain_pending(&mut queue, &mut self.awaiting);
        if !batch.is_empty() {
            return Some(batch);
        }
        if self.shared.closing() {
            return None;
        }
        if !idle {
            return Some(Vec::new());
        }
        // Idle: block until a submission arrives, the service starts
        // closing, or the poll interval elapses (so a co-intake — the
        // spool half of a PairedIntake — still gets its turn).
        let wait = Duration::from_millis(self.shared.config.poll_ms.max(1));
        let (mut queue, _) = self
            .shared
            .arrived
            .wait_timeout(queue, wait)
            .unwrap_or_else(|e| e.into_inner());
        let batch = drain_pending(&mut queue, &mut self.awaiting);
        if batch.is_empty() && self.shared.closing() {
            return None;
        }
        Some(batch)
    }

    fn ack(&mut self) {
        for done in self.awaiting.drain(..) {
            let _ = done.send(());
        }
    }

    fn budget_exhausted(&mut self) {
        self.shared.shed.store(true, Ordering::SeqCst);
    }
}

impl Drop for NetIntake {
    fn drop(&mut self) {
        // Order matters: close the queue under its lock first (no
        // handler can enqueue after this), then unblock every handler
        // — dropped senders answer `rejected … closed`, shut-down
        // sockets fail pending reads — then join the acceptor, which
        // joins its handlers.
        {
            let mut queue = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
            queue.pending.clear();
            for stream in queue.streams.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        self.shared.arrived.notify_all();
        self.awaiting.clear();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if self.own_stage {
            let _ = std::fs::remove_dir_all(&self.shared.stage);
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let nap = Duration::from_millis(25);
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    while !shared.closing() {
        handlers.retain(|h| !h.is_finished());
        if shared.conns.load(Ordering::SeqCst) >= shared.config.max_conns {
            // Backpressure: stop accepting; excess clients wait in the
            // kernel backlog until a handler slot frees up.
            std::thread::sleep(nap);
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if ocr_fault::point("net.accept") {
                    // Injected accept failure: the connection is
                    // dropped before any protocol exchange.
                    continue;
                }
                let conn = next_conn;
                next_conn += 1;
                shared.conns.fetch_add(1, Ordering::SeqCst);
                ocr_obs::count("net.conns", 1);
                if let Ok(clone) = stream.try_clone() {
                    shared.lock().streams.insert(conn, clone);
                }
                let shared2 = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("ocr-net-conn-{conn}"))
                    .spawn(move || {
                        shared2.ambient.enter(|| {
                            // A panicking handler (injected fault, latent
                            // bug) loses its connection only — the daemon
                            // is never poisoned.
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handle_connection(&stream, &shared2)
                                }));
                            drop(caught);
                        });
                        shared2.lock().streams.remove(&conn);
                        shared2.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => {
                        shared.lock().streams.remove(&conn);
                        shared.conns.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(nap),
            Err(_) => std::thread::sleep(nap),
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// A [`Read`] view of a connection that enforces a per-frame deadline:
/// the first byte may take until `deadline` (the idle allowance);
/// every subsequent read of the same frame must land within the I/O
/// timeout. Timeouts surface as `WouldBlock`/`TimedOut`, which the
/// wire layer maps to [`WireError::TimedOut`].
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    io_timeout: Duration,
    started: bool,
}

impl<'a> DeadlineStream<'a> {
    fn new(stream: &'a TcpStream, idle: Duration, io_timeout: Duration) -> DeadlineStream<'a> {
        DeadlineStream {
            stream,
            deadline: Instant::now() + idle,
            io_timeout,
            started: false,
        }
    }
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if ocr_fault::point("net.read") {
            return Err(std::io::Error::other("injected net.read fault"));
        }
        let now = Instant::now();
        if now >= self.deadline {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let remaining = self.deadline - now;
        self.stream.set_read_timeout(Some(remaining))?;
        let n = self.stream.read(buf)?;
        if n > 0 && !self.started {
            // The frame has started: the generous idle allowance is
            // spent, the rest must arrive at I/O pace.
            self.started = true;
            self.deadline = Instant::now() + self.io_timeout;
        }
        Ok(n)
    }
}

/// Writes one response frame, with the `net.write` fault site in
/// front.
fn send(stream: &TcpStream, response: &Response) -> Result<(), WireError> {
    if ocr_fault::point("net.write") {
        return Err(WireError::Io("injected net.write fault".to_string()));
    }
    write_frame(&mut { stream }, &response_payload(response))
}

fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let io_timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
    let idle_timeout = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    let _ = stream.set_write_timeout(Some(io_timeout));
    if write_magic(&mut { stream }).is_err() {
        return;
    }
    {
        let mut reader = DeadlineStream::new(stream, idle_timeout, io_timeout);
        if let Err(e) = read_magic(&mut reader) {
            let _ = send(
                stream,
                &Response::Error {
                    kind: e.kind().to_string(),
                    detail: e.to_string(),
                },
            );
            if e == WireError::TimedOut {
                ocr_obs::count("net.timeouts", 1);
            }
            return;
        }
    }
    loop {
        let mut reader = DeadlineStream::new(stream, idle_timeout, io_timeout);
        match read_frame(&mut reader, shared.config.max_frame) {
            Ok(None) => return, // clean disconnect between frames
            Err(WireError::TimedOut) => {
                // Slow loris: the frame never finished (or never
                // started) in time. Answer if the socket still can,
                // then close.
                ocr_obs::count("net.timeouts", 1);
                let _ = send(
                    stream,
                    &Response::Error {
                        kind: "timeout".to_string(),
                        detail: "frame deadline expired".to_string(),
                    },
                );
                return;
            }
            Err(e) => {
                // Torn, oversized, checksum-bad, malformed header:
                // typed rejection, then close — the stream position is
                // no longer trustworthy.
                let _ = send(
                    stream,
                    &Response::Error {
                        kind: e.kind().to_string(),
                        detail: e.to_string(),
                    },
                );
                return;
            }
            Ok(Some(payload)) => {
                // Mid-frame fault site: a plan can delay, fail, or
                // kill a handler with a received-but-unprocessed
                // frame.
                ocr_fault::point("net.frame");
                ocr_obs::count("net.frames", 1);
                let closing = match dispatch(&payload, stream, shared) {
                    Ok(closing) => closing,
                    Err(_) => return, // response write failed
                };
                if closing {
                    return;
                }
            }
        }
    }
}

/// Handles one well-framed payload; `Ok(true)` ends the connection.
fn dispatch(payload: &str, stream: &TcpStream, shared: &Shared) -> Result<bool, WireError> {
    match parse_request(payload) {
        Err(e) => {
            // The framing was intact — only this request is bad. The
            // connection stays usable.
            send(
                stream,
                &Response::Error {
                    kind: e.kind().to_string(),
                    detail: e.to_string(),
                },
            )?;
            Ok(false)
        }
        Ok(Request::Ping) => {
            send(stream, &Response::Pong)?;
            Ok(false)
        }
        Ok(Request::Shutdown) => {
            send(stream, &Response::Closing)?;
            shared.begin_shutdown();
            Ok(true)
        }
        Ok(Request::Submit(spec, chip_text)) => {
            let response = submit(spec, &chip_text, shared);
            send(stream, &response)?;
            Ok(false)
        }
    }
}

fn rejected(name: &str, reason: RejectReason, retry_after_ms: u64, detail: &str) -> Response {
    Response::Rejected {
        name: name.to_string(),
        reason,
        retry_after_ms,
        detail: detail.to_string(),
    }
}

/// Admission control and staging for one submission. Order: closed →
/// budget shed → tenant quota → queue capacity → stage + load →
/// enqueue → wait for the engine's durable ack.
fn submit(spec: ocr_io::job::JobSpec, chip_text: &str, shared: &Shared) -> Response {
    let name = spec.name.clone();
    let overload_retry = shared.config.poll_ms.max(100);
    {
        let mut queue = shared.lock();
        if shared.closing() {
            return rejected(&name, RejectReason::Closed, 0, "service is draining");
        }
        if shared.shed.load(Ordering::SeqCst) {
            ocr_obs::count("net.rejected.overload", 1);
            return rejected(
                &name,
                RejectReason::Overload,
                overload_retry,
                "global step budget exhausted",
            );
        }
        if let Some(quota) = &shared.config.quota {
            let tenant = spec.tenant.clone().unwrap_or_else(|| "-".to_string());
            let now = Instant::now();
            let bucket = queue.buckets.entry(tenant.clone()).or_insert(Bucket {
                milli: quota.burst.saturating_mul(1000),
                last: now,
            });
            if let Err(retry_after_ms) = bucket.take(quota, now) {
                ocr_obs::count("net.rejected.quota", 1);
                return rejected(
                    &name,
                    RejectReason::Quota,
                    retry_after_ms,
                    &format!("tenant {tenant} out of tokens"),
                );
            }
        }
        if queue.pending.len() >= shared.config.max_pending {
            ocr_obs::count("net.rejected.overload", 1);
            return rejected(
                &name,
                RejectReason::Overload,
                overload_retry,
                "submission queue full",
            );
        }
    }
    // Stage the chip durably, outside the lock (disk I/O), then load
    // it exactly as a spooled job would be.
    let n = shared.submissions.fetch_add(1, Ordering::SeqCst);
    let chip_file = format!("{n:06}-{name}.ocr");
    let mut spec = spec;
    spec.chip = chip_file.clone();
    if let Err(e) = ocr_io::atomic_write(&shared.stage.join(&chip_file), chip_text) {
        return Response::Error {
            kind: "io".to_string(),
            detail: format!("staging the chip failed: {e}"),
        };
    }
    let input = load_job(spec, &shared.stage);
    let (done, accepted): (Sender<()>, Receiver<()>) = std::sync::mpsc::channel();
    {
        let mut queue = shared.lock();
        // Re-check under the lock: the service may have started
        // closing or filled up while the chip was being staged.
        if shared.closing() {
            return rejected(&name, RejectReason::Closed, 0, "service is draining");
        }
        if queue.pending.len() >= shared.config.max_pending {
            ocr_obs::count("net.rejected.overload", 1);
            return rejected(
                &name,
                RejectReason::Overload,
                overload_retry,
                "submission queue full",
            );
        }
        queue.pending.push(Pending { input, done });
    }
    shared.arrived.notify_all();
    // Block until the engine journals and fsyncs the batch (ack) —
    // `accepted` is a durability promise. A dropped sender means the
    // service closed before the batch was accepted.
    match accepted.recv() {
        Ok(()) => Response::Accepted(name),
        Err(_) => rejected(
            &name,
            RejectReason::Closed,
            0,
            "service closed before the submission was accepted",
        ),
    }
}

/// A spool directory and a TCP listener feeding one engine: spool
/// batches first (scans never sleep — the net half paces the idle
/// loop), then network submissions. Either half closing closes the
/// whole intake: a spool `stop` sentinel (or `--drain`) shuts the
/// listener down, a wire `shutdown` triggers one final spool drain.
pub struct PairedIntake {
    spool: crate::SpoolIntake,
    net: NetIntake,
    spool_closed: bool,
    net_closed: bool,
}

impl PairedIntake {
    /// Pairs the two intakes.
    pub fn new(spool: crate::SpoolIntake, net: NetIntake) -> PairedIntake {
        PairedIntake {
            spool,
            net,
            spool_closed: false,
            net_closed: false,
        }
    }

    /// The bound address of the network half.
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The first spool error that closed the spool half, if any.
    pub fn take_error(&mut self) -> Option<ServeError> {
        self.spool.take_error()
    }
}

impl Intake for PairedIntake {
    fn poll(&mut self, idle: bool) -> Option<Vec<JobInput>> {
        let mut batch = Vec::new();
        if !self.spool_closed {
            // Never let the spool sleep: the net half's bounded
            // condvar wait is the pacing for the whole pair.
            match self.spool.poll(false) {
                None => {
                    self.spool_closed = true;
                    self.net.begin_shutdown();
                }
                Some(jobs) => batch.extend(jobs),
            }
        }
        if !self.net_closed {
            match self.net.poll(idle && batch.is_empty()) {
                None => {
                    self.net_closed = true;
                    if !self.spool_closed {
                        // One final spool drain so files that raced
                        // the shutdown are still served, then close.
                        if let Some(jobs) = self.spool.poll(false) {
                            batch.extend(jobs);
                        }
                        self.spool_closed = true;
                    }
                }
                Some(jobs) => batch.extend(jobs),
            }
        }
        if self.spool_closed && self.net_closed && batch.is_empty() {
            return None;
        }
        Some(batch)
    }

    fn ack(&mut self) {
        self.spool.ack();
        self.net.ack();
    }

    fn budget_exhausted(&mut self) {
        self.spool.budget_exhausted();
        self.net.budget_exhausted();
    }
}

/// Connects to a front-end and performs the magic exchange. The
/// returned stream has `timeout` installed for reads and writes.
///
/// # Errors
///
/// [`WireError`] when the connection or the magic exchange fails.
pub fn client_connect(addr: &str, timeout: Duration) -> Result<TcpStream, WireError> {
    let stream = TcpStream::connect(addr).map_err(|e| WireError::Io(format!("connect: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| WireError::Io(format!("set timeout: {e}")))?;
    write_magic(&mut (&stream))?;
    read_magic(&mut (&stream))?;
    Ok(stream)
}

/// Sends one request payload and reads the response frame.
///
/// # Errors
///
/// [`WireError`] on a transport failure or a malformed response.
pub fn client_request(stream: &TcpStream, payload: &str) -> Result<Response, WireError> {
    ocr_io::wire::write_frame(&mut { stream }, payload)?;
    match read_frame(&mut { stream }, ocr_io::wire::DEFAULT_MAX_FRAME)? {
        Some(response) => ocr_io::wire::parse_response(&response),
        None => Err(WireError::Torn(
            "connection closed before the response".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_burst_then_rate() {
        let quota = QuotaConfig {
            rate_per_sec: 0,
            burst: 2,
        };
        let t0 = Instant::now();
        let mut bucket = Bucket {
            milli: quota.burst * 1000,
            last: t0,
        };
        assert!(bucket.take(&quota, t0).is_ok());
        assert!(bucket.take(&quota, t0).is_ok());
        // Rate 0 never refills: the third take fails forever.
        assert_eq!(bucket.take(&quota, t0), Err(60_000));
        assert_eq!(
            bucket.take(&quota, t0 + Duration::from_secs(3600)),
            Err(60_000)
        );
    }

    #[test]
    fn bucket_refills_at_the_configured_rate() {
        let quota = QuotaConfig {
            rate_per_sec: 10,
            burst: 1,
        };
        let t0 = Instant::now();
        let mut bucket = Bucket {
            milli: 1000,
            last: t0,
        };
        assert!(bucket.take(&quota, t0).is_ok());
        // Empty: a full token takes 100ms at 10/s.
        assert_eq!(bucket.take(&quota, t0), Err(100));
        assert!(bucket.take(&quota, t0 + Duration::from_millis(100)).is_ok());
        // The bucket never exceeds its burst even after a long sleep.
        let mut bucket = Bucket { milli: 0, last: t0 };
        let _ = bucket.take(&quota, t0 + Duration::from_secs(100));
        assert!(bucket.milli <= 1000, "{}", bucket.milli);
    }
}
