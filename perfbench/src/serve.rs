//! The `serve` workload: a fresh `ocr serve --listen --journal
//! --max-concurrent 2` daemon driven over `ocr-wire-v1`.
//!
//! While the new daemon idles, a closed loop of in-process passes over the
//! mix cycle gives the flow time. Then two phases drive the daemon:
//!
//! 1. An open loop: seeded Poisson arrivals from one client connection.
//!    Every job is timed from when it was due: its accept from the submit
//!    to the durable `accepted` reply, its latency until
//!    `out/<name>/status` appears.
//! 2. Saturation batches: one whole mix cycle at a time, submitted at once
//!    from several connections, so the daemon's queue stays full; a batch
//!    is timed from its first submit until its last `status` appears.
//!
//! After the load the daemon is stopped with a wire `shutdown` and reaped,
//! and every answer is checked against an in-process pass of its chip.
//! The daemon's own times (latencies, batch seconds, saturated
//! throughput) follow the disk's fsync latency, which drifts from run to
//! run by more than an end-to-end bound allows, so they are per-layer
//! figures; README.md has the measurements.

use crate::calib;
use crate::flow::{self, Chip, Counts};
use crate::stats::{self, DueTimes, Ratio};
use crate::trace::Tracer;
use crate::{Args, Report};
use ocr_core::{resume_from_doc, CheckpointSpec, FlowKind, FlowOptions, RunSession};
use ocr_exec::{RunControl, TripReason};
use ocr_io::job::JobSpec;
use ocr_io::wire::{self, Response};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load of the open loop, jobs per second. One connection waits
/// for each durable `accepted` before it sends the next job, and the
/// daemon only accepts between rounds, so at most one slot of its pool
/// fills from this client; at this rate that slot is about a fifth busy.
pub const RATE: f64 = 4.0;

/// Shares of `--seconds` given to the in-process flow loop, to the open
/// loop (rounded to whole mix cycles, at least one) and to the saturation
/// batches. The flow loop gets the largest share: it gives the end-to-end
/// flow time, whose median drifts with the host's speed from run to run,
/// and a longer loop averages more of that drift.
const FLOW_SHARE: f64 = 2.0 / 3.0;
const OPEN_SHARE: f64 = 1.0 / 6.0;
const SATURATION_SHARE: f64 = 1.0 / 6.0;

/// Connections that submit a saturation batch: twice the pool's slots,
/// so that every round's poll finds more jobs than the round can run.
const CLIENTS: usize = 4;

/// Saturation batches a run makes at least, however short `--seconds`.
const MIN_BATCHES: usize = 3;

/// Host-speed probe samples taken before each set-up sample, so the
/// probe's median covers the saturation phase as well as the flow loop.
const PROBES_PER_SETUP: usize = 3;

/// Jobs per mix cycle: 17 small random chips, ami33 twice and ex3 once,
/// shuffled per cycle. ex3 outruns the default quantum and is preempted
/// to a checkpoint and resumed. The open loop is whole cycles and a
/// saturation batch is one cycle, so every run serves the same mix. The
/// small jobs all carry one chip: with several distinct small chips a
/// median over jobs would sit on the boundary between two of them and
/// flip from run to run.
const CYCLE: usize = 20;
const SMALL: usize = 17;

/// Slots of the daemon's pool.
const MAX_CONCURRENT: usize = 2;

/// The daemon's default `--quantum`: steps a fresh job may take before
/// it is preempted, doubling per preemption.
const QUANTUM: u64 = 256;

/// Mix cycles a traced run routes in process, plain and traced, for the
/// flow layers and the tracing overhead.
const TRACED_CYCLES: usize = 5;

/// Pings on the idle connection before the load, for the wire round trip.
const PINGS: usize = 50;

/// How long a daemon may take to come up, to answer, and to exit.
const START_DEADLINE: Duration = Duration::from_secs(30);
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);
const EXIT_DEADLINE: Duration = Duration::from_secs(30);

/// The distinct chips of the mix: the small chip (`ocr generate random
/// --seed 1`), ami33 and ex3.
fn pool() -> Vec<Chip> {
    let small = ocr_gen::random::small_random(8, 3, 4, 20, 1);
    [
        small,
        ocr_gen::suite::ami33_like(),
        ocr_gen::suite::ex3_like(),
    ]
    .into_iter()
    .map(|g| Chip {
        name: g.spec.name.clone(),
        text: ocr_io::write_chip(&g.layout, &g.placement),
    })
    .collect()
}

/// Which pool chip a cycle position holds.
fn cycle_chip(pos: usize) -> usize {
    match pos {
        p if p < SMALL => 0,
        p if p < SMALL + 2 => 1,
        _ => 2,
    }
}

/// The seeded job list: pool chip per job, a fresh shuffle per cycle.
/// The job count is a whole number of cycles, so every run serves the
/// same mix and only arrival times and order depend on the seed. Each
/// ex3 is followed by an ami33, which in the open loop arrives while
/// ex3's first slice runs more often than not, so a preempted ex3
/// resumes next to a new job on almost every run.
fn job_mix(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = ocr_gen::Rng::seed_from_u64(seed ^ 0x5e7e);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut units: Vec<&[usize]> = vec![&[0]; SMALL];
        units.push(&[1]);
        units.push(&[2, 1]);
        rng.shuffle(&mut units);
        out.extend(units.into_iter().flatten());
    }
    out.truncate(n);
    out
}

/// Builds (or finds up to date) the `ocr` binary of this checkout.
fn build_ocr(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "ocr"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of ocr failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("ocr");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// A running daemon. Dropping it kills and reaps the process, so no
/// error path leaves one behind.
struct Daemon {
    child: Option<Child>,
    dir: PathBuf,
    addr: String,
}

impl Daemon {
    /// Starts a daemon over fresh out, journal and stage directories
    /// under `dir`, and returns once it answered a ping.
    fn start(ocr: &Path, dir: &Path) -> Result<Daemon, String> {
        clear(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file =
            |name: &str| std::fs::File::create(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        let addr_file = dir.join("addr");
        let child = Command::new(ocr)
            .arg("serve")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--out")
            .arg(dir.join("out"))
            .arg("--journal")
            .arg(dir.join("journal"))
            .arg("--stage")
            .arg(dir.join("stage"))
            .arg("--max-concurrent")
            .arg(MAX_CONCURRENT.to_string())
            .env("OCR_THREADS", crate::OCR_THREADS)
            .stdin(Stdio::null())
            .stdout(file("stdout.log")?)
            .stderr(file("stderr.log")?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ocr.display()))?;
        let mut child = Some(child);
        let t0 = Instant::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            let exited = child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(reap(
                    &mut child,
                    dir,
                    &format!("daemon exited at start-up ({status})"),
                ));
            }
            if t0.elapsed() > START_DEADLINE {
                return Err(reap(
                    &mut child,
                    dir,
                    "daemon did not announce its address in time",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let stream = match ocr_serve::client_connect(&addr, DRAIN_DEADLINE) {
            Ok(s) => s,
            Err(e) => return Err(reap(&mut child, dir, &format!("connecting to {addr}: {e}"))),
        };
        let mut d = Daemon {
            child,
            dir: dir.to_path_buf(),
            addr,
        };
        match ocr_serve::client_request(&stream, "ping") {
            Ok(Response::Pong) => Ok(d),
            other => Err(d.failure(&format!("first ping answered {other:?}"))),
        }
    }

    /// A new client connection to the daemon.
    fn connect(&mut self) -> Result<TcpStream, String> {
        ocr_serve::client_connect(&self.addr, DRAIN_DEADLINE)
            .map_err(|e| self.failure(&format!("connecting to {}: {e}", self.addr)))
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map(|c| c.id().to_string())
            .unwrap_or_default()
    }

    /// Kills and reaps the daemon and returns `why` with its stderr.
    fn failure(&mut self, why: &str) -> String {
        reap(&mut self.child, &self.dir, why)
    }

    /// Asks the daemon to drain and exit over the wire, and reaps it. The
    /// request goes over a new connection: the daemon closes one that
    /// stayed idle longer than its `--net-idle-ms`.
    fn stop(mut self) -> Result<(), String> {
        let stream = self.connect()?;
        match ocr_serve::client_request(&stream, "shutdown") {
            Ok(Response::Closing) => {}
            other => return Err(self.failure(&format!("shutdown answered {other:?}"))),
        }
        let t0 = Instant::now();
        loop {
            let Some(child) = self.child.as_mut() else {
                return Ok(());
            };
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    self.child = None;
                    return Ok(());
                }
                Ok(Some(status)) => {
                    self.child = None;
                    return Err(self.failure(&format!("daemon exited with {status}")));
                }
                Ok(None) if t0.elapsed() > EXIT_DEADLINE => {
                    return Err(self.failure("daemon did not exit after shutdown"));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(self.failure(&format!("waiting for the daemon: {e}"))),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Kills and reaps a daemon that failed, and returns `why` with the tail
/// of its stderr.
fn reap(child: &mut Option<Child>, dir: &Path, why: &str) -> String {
    if let Some(mut c) = child.take() {
        let _ = c.kill();
        let _ = c.wait();
    }
    let stderr = std::fs::read_to_string(dir.join("stderr.log")).unwrap_or_default();
    let lines: Vec<&str> = stderr.lines().collect();
    let tail = &lines[lines.len().saturating_sub(20)..];
    format!("{why}; daemon stderr:\n{}", tail.join("\n"))
}

/// Set-up: the chips, then a daemon on fresh directories up to its
/// first pong. Returns both with the seconds it took.
fn set_up(ocr: &Path, dir: &Path) -> Result<(Vec<Chip>, Daemon, f64), String> {
    let t0 = Instant::now();
    let chips = pool();
    let daemon = Daemon::start(ocr, dir)?;
    Ok((chips, daemon, t0.elapsed().as_secs_f64()))
}

/// One job as the client saw it.
struct Job {
    name: String,
    chip: usize,
    times: DueTimes,
    accept_s: f64,
}

/// Span totals of one `ocr-stats-v1` document, by span name.
fn span_totals(text: &str) -> Result<Vec<(String, u64, u64)>, String> {
    let doc = ocr_obs::json::parse(text)?;
    let mut out = Vec::new();
    for run in doc.get("runs").and_then(|r| r.as_array()).unwrap_or(&[]) {
        for s in run.get("spans").and_then(|s| s.as_array()).unwrap_or(&[]) {
            let name = s.get("name").and_then(|v| v.as_str()).unwrap_or("");
            let count = s.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
            let total = s.get("total_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            out.push((name.to_string(), count, total));
        }
    }
    Ok(out)
}

/// A counter of an `ocr-stats-v1` document (0 when absent).
fn counter(text: &str, name: &str) -> u64 {
    let Ok(doc) = ocr_obs::json::parse(text) else {
        return 0;
    };
    let runs = doc.get("runs").and_then(|r| r.as_array()).unwrap_or(&[]);
    runs.iter()
        .flat_map(|r| r.get("counters").and_then(|c| c.as_array()).unwrap_or(&[]))
        .filter(|c| c.get("name").and_then(|v| v.as_str()) == Some(name))
        .filter_map(|c| c.get("value").and_then(|v| v.as_u64()))
        .sum()
}

/// Removes a run's directory and commits the removal, so the file
/// system's work of freeing it is not charged to a later run.
fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
}

/// The `ocr-wire-v1` submit payload of a job.
fn payload(name: &str, chip: &Chip) -> String {
    wire::submit_payload(&JobSpec::new(name, "-"), &chip.text)
}

/// Stamps each job (by index into `names`) with the seconds since
/// `start` at which its `status` file appeared — the daemon writes it
/// last, atomically, after the routes and stats. Watches the first
/// `submitted` jobs until every one of the `names` is stamped, `stop` is
/// raised, or `deadline` passes.
fn watch(
    out: &Path,
    names: &[String],
    submitted: &AtomicUsize,
    stop: &AtomicBool,
    start: Instant,
    deadline: Duration,
) -> Vec<Option<f64>> {
    let mut done = vec![None; names.len()];
    let mut pending: Vec<usize> = Vec::new();
    let (mut next, mut left) = (0, names.len());
    while left > 0 && !stop.load(Ordering::SeqCst) && start.elapsed() < deadline {
        let upto = submitted.load(Ordering::SeqCst);
        pending.extend(next..upto);
        next = upto;
        pending.retain(|&k| {
            if out.join(&names[k]).join("status").exists() {
                done[k] = Some(start.elapsed().as_secs_f64());
                left -= 1;
                false
            } else {
                true
            }
        });
        std::thread::sleep(Duration::from_micros(500));
    }
    done
}

/// What the open loop measured.
struct OpenLoop {
    jobs: Vec<Job>,
    ping_ms: Vec<f64>,
}

/// Phase 1: `n` jobs at [`RATE`] from one new connection, each timed from
/// when it was due.
fn open_loop(
    daemon: &mut Daemon,
    chips: &[Chip],
    seed: u64,
    n: usize,
    rep: &mut Report,
    tracer: &Tracer,
) -> Result<OpenLoop, String> {
    let due = stats::poisson_schedule(seed, RATE, n as f64 / RATE);
    let mix = job_mix(seed, n);
    let names: Vec<String> = mix
        .iter()
        .enumerate()
        .map(|(k, &c)| format!("o{k:04}-{}", chips[c].name))
        .collect();
    let payloads: Vec<String> = mix
        .iter()
        .zip(&names)
        .map(|(&c, name)| payload(name, &chips[c]))
        .collect();
    let stream = daemon.connect()?;
    let mut ping_ms = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        match ocr_serve::client_request(&stream, "ping") {
            Ok(Response::Pong) => ping_ms.push(t.elapsed().as_secs_f64() * 1e3),
            other => return Err(daemon.failure(&format!("ping answered {other:?}"))),
        }
    }
    let out = daemon.dir.join("out");
    let submitted = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();
    let deadline = Duration::from_secs_f64(due.last().copied().unwrap_or(0.0)) + DRAIN_DEADLINE;
    let mut sent = vec![0.0; n];
    let mut accepted = vec![0.0; n];
    let mut wire_error = None;
    let stream = &stream;
    let done = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch(&out, &names, &submitted, &stop, start, deadline));
        for k in 0..n {
            let wait = due[k] - elapsed();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            sent[k] = elapsed();
            submitted.store(k + 1, Ordering::SeqCst);
            let reply = ocr_serve::client_request(stream, &payloads[k]);
            accepted[k] = elapsed();
            match reply {
                Ok(Response::Accepted(_)) => {}
                Ok(other) => rep.fail(format!(
                    "{}: submission answered `{}`",
                    names[k],
                    wire::response_payload(&other)
                )),
                Err(e) => {
                    wire_error = Some(format!("{}: {e}", names[k]));
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        watcher.join().expect("status watcher")
    });
    if let Some(e) = wire_error {
        return Err(daemon.failure(&format!("wire error: {e}")));
    }
    let missing = done.iter().filter(|d| d.is_none()).count();
    if missing > 0 {
        return Err(daemon.failure(&format!("{missing} job(s) unanswered at the deadline")));
    }
    let epoch = start.duration_since(tracer.epoch()).as_secs_f64();
    let jobs = (0..n)
        .map(|k| {
            let times = DueTimes {
                due: due[k],
                sent: sent[k],
                done: done[k].expect("checked above"),
            };
            tracer.record(
                "serve.accept",
                epoch + sent[k],
                epoch + accepted[k],
                k as u64,
            );
            tracer.record("serve.job", epoch + due[k], epoch + times.done, k as u64);
            Job {
                name: names[k].clone(),
                chip: mix[k],
                times,
                accept_s: accepted[k] - sent[k],
            }
        })
        .collect();
    Ok(OpenLoop { jobs, ping_ms })
}

/// Phase 2, one batch: the mix cycle `mix`, submitted at once from
/// [`CLIENTS`] fresh connections (job `k` from connection `k % CLIENTS`,
/// each sending its next job as soon as the last is accepted). Returns
/// the job names and the seconds from the first submit until the last
/// `status` appeared.
fn saturation_batch(
    daemon: &mut Daemon,
    chips: &[Chip],
    batch: usize,
    mix: &[usize],
    rep: &mut Report,
    tracer: &Tracer,
) -> Result<(Vec<(String, usize)>, f64), String> {
    let names: Vec<String> = mix
        .iter()
        .enumerate()
        .map(|(k, &c)| format!("b{batch:03}j{k:02}-{}", chips[c].name))
        .collect();
    let payloads: Vec<String> = mix
        .iter()
        .zip(&names)
        .map(|(&c, name)| payload(name, &chips[c]))
        .collect();
    let streams = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let out = daemon.dir.join("out");
    let submitted = AtomicUsize::new(names.len());
    let stop = AtomicBool::new(false);
    let replies: Mutex<Vec<(usize, Result<Response, String>)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let done = std::thread::scope(|s| {
        for (c, stream) in streams.iter().enumerate() {
            let (payloads, replies, stop) = (&payloads, &replies, &stop);
            s.spawn(move || {
                for k in (c..payloads.len()).step_by(CLIENTS) {
                    let reply =
                        ocr_serve::client_request(stream, &payloads[k]).map_err(|e| e.to_string());
                    let failed = reply.is_err();
                    replies.lock().expect("replies").push((k, reply));
                    if failed {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            });
        }
        watch(&out, &names, &submitted, &stop, start, DRAIN_DEADLINE)
    });
    let mut wire_error = None;
    for (k, reply) in replies.into_inner().expect("replies") {
        match reply {
            Ok(Response::Accepted(_)) => {}
            Ok(other) => rep.fail(format!(
                "{}: submission answered `{}`",
                names[k],
                wire::response_payload(&other)
            )),
            Err(e) => wire_error = Some(format!("{}: {e}", names[k])),
        }
    }
    if let Some(e) = wire_error {
        return Err(daemon.failure(&format!("wire error: {e}")));
    }
    let missing = done.iter().filter(|d| d.is_none()).count();
    if missing > 0 {
        return Err(daemon.failure(&format!(
            "batch {batch}: {missing} job(s) unanswered at the deadline"
        )));
    }
    let secs = done.iter().flatten().fold(0.0, |a: f64, &b| a.max(b));
    let epoch = start.duration_since(tracer.epoch()).as_secs_f64();
    tracer.record("serve.batch", epoch, epoch + secs, batch as u64);
    Ok((names.into_iter().zip(mix.iter().copied()).collect(), secs))
}

/// Checkpoint writes of one chip served the way the daemon serves a job:
/// `run_controlled` with a checkpoint after every net commit, sliced by
/// the default quantum (doubling per preemption) and resumed from the
/// checkpoint each slice leaves. Returns the writes and their
/// nanoseconds, summed over every slice — a job's `stats.json` holds only
/// its last slice's.
fn sliced_ckpt_writes(chip: &Chip, spec: &JobSpec, path: &Path) -> Result<(u64, u64), String> {
    let why = |e: String| format!("{}: sliced replay: {e}", chip.name);
    let (layout, placement) = ocr_io::parse_chip(&chip.text).map_err(|e| why(e.message))?;
    let chip_hash = ocr_io::ckpt::fnv1a_64(&ocr_io::write_chip(&layout, &placement));
    let options = FlowOptions::new()
        .telemetry(true)
        .salvage(spec.salvage)
        .verify(spec.verify);
    let flow = FlowKind::OverCell.build_with_ordering(options, None);
    let (mut steps, mut preempts, mut resume) = (0u64, 0u32, None);
    let (mut writes, mut ns) = (0, 0);
    loop {
        let control = RunControl::new()
            .with_step_budget(steps + (QUANTUM << preempts))
            .resumed_at(steps);
        let session = RunSession {
            control: control.clone(),
            checkpoint: Some(CheckpointSpec {
                path: path.to_path_buf(),
                every: 1,
                flow: FlowKind::OverCell.name().to_string(),
                chip_hash,
            }),
            resume: resume.take(),
        };
        let result = flow
            .run_controlled(&layout, &placement, &session)
            .map_err(|e| why(e.to_string()))?;
        for a in result.telemetry.iter().flat_map(|t| t.aggregate()) {
            if a.name == "ckpt.write" {
                writes += a.count;
                ns += a.total_ns;
            }
        }
        if control.tripped() != Some(TripReason::BudgetExceeded) {
            return Ok((writes, ns));
        }
        let text = std::fs::read_to_string(path).map_err(|e| why(e.to_string()))?;
        let doc = ocr_io::ckpt::parse_checkpoint(&layout, &text).map_err(|e| why(e.message))?;
        steps = doc.steps;
        resume = Some(resume_from_doc(doc).map_err(|e| why(e.to_string()))?);
        preempts += 1;
    }
}

/// Runs the workload.
pub fn run(root: &Path, args: &Args) -> Result<Report, String> {
    let ocr = build_ocr(root)?;
    let mut rep = Report::default();
    let base = root
        .join(".perfbench")
        .join(format!("serve-seed{}-trace{}", args.seed, args.trace as u8));
    clear(&base);
    let tracer = Tracer::new(args.trace);
    let (chips, mut daemon, first_setup) = set_up(&ocr, &base.join("daemon"))?;
    let mut setups = vec![first_setup];

    // Reference passes: one in-process pass per chip of the mix,
    // oracle-clean and with the recorded counts; every answer of the
    // daemon must equal its chip's.
    let plain = Tracer::new(false);
    let expected = crate::recorded();
    let mut refs = Vec::with_capacity(chips.len());
    for chip in &chips {
        let pass = flow::run_pass(chip, &plain, 0)?;
        if let Some(why) = flow::check_pass(chip, &pass, expected.get(&chip.name), None) {
            rep.fail(why);
        }
        refs.push(pass);
    }
    let mut per_cycle = Counts::default();
    for pos in 0..CYCLE {
        per_cycle.add(&refs[cycle_chip(pos)].counts);
    }
    crate::set_quality(&mut rep, &per_cycle);
    rep.notes.push(
        "flow time and route quality are per mix cycle (17 small jobs, ami33 twice, ex3 once)"
            .into(),
    );
    // Flow time: a closed loop of in-process passes over the mix cycle,
    // warmed up by the reference passes, while the daemon sits idle and
    // before its writes load the disk. The daemon's own times follow the
    // disk's fsync latency and are per-layer figures (see README.md).
    let mut probe = calib::Probe::new();
    let mut flow_s = Vec::new();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * FLOW_SHARE);
    while flow_s.is_empty() || t0.elapsed() < budget {
        probe.sample();
        let mut cycle = 0.0;
        for pos in 0..CYCLE {
            cycle += flow::run_pass(&chips[cycle_chip(pos)], &plain, 0)?
                .times
                .flow;
        }
        flow_s.push(cycle);
    }
    rep.set("flow_s_p50", stats::median(&flow_s));
    rep.set_tail("flow_s_tail", stats::tail(&flow_s));

    let cycles = (RATE * args.seconds * OPEN_SHARE / CYCLE as f64)
        .round()
        .max(1.0) as usize;
    let open = open_loop(
        &mut daemon,
        &chips,
        args.seed,
        cycles * CYCLE,
        &mut rep,
        &tracer,
    )?;

    // Saturation batches for a share of the run, each preceded by one
    // more set-up sample: a spare daemon started while the measured one
    // is idle, then stopped. Spreading the samples over the run gives
    // `setup_s` the same host conditions as the rest.
    let budget = Duration::from_secs_f64(args.seconds * SATURATION_SHARE);
    let mut batch_s = Vec::new();
    let mut batch_jobs = Vec::new();
    let t0 = Instant::now();
    while batch_s.len() < MIN_BATCHES || t0.elapsed() < budget {
        let b = batch_s.len();
        for _ in 0..PROBES_PER_SETUP {
            probe.sample();
        }
        let (_, spare, secs) = set_up(&ocr, &base.join("spare"))?;
        setups.push(secs);
        spare.stop()?;
        clear(&base.join("spare"));
        let mix = job_mix(args.seed.wrapping_add(1 + b as u64), CYCLE);
        let (jobs, secs) = saturation_batch(&mut daemon, &chips, b, &mix, &mut rep, &tracer)?;
        batch_s.push(secs);
        batch_jobs.extend(jobs);
    }
    let daemon_rss_mb = crate::peak_rss_mb(&daemon.pid());
    let dir = daemon.dir.clone();
    daemon.stop()?;

    rep.set("setup_s", stats::median(&setups));
    rep.notes.push(format!(
        "setup_s is the median of {} set-ups spread over the run",
        setups.len()
    ));
    // The open loop's answered rate: it stays at the offered rate unless
    // the daemon falls behind it.
    let jobs = &open.jobs;
    let n_open = jobs.len();
    let last_done = jobs.iter().map(|j| j.times.done).fold(0.0, f64::max);
    rep.set_ratio(
        "jobs_per_s",
        Ratio {
            num: n_open as f64,
            den: last_done,
        },
    );
    rep.set("peak_rss_mb", crate::peak_rss_mb("self"));
    // jobs_per_s is the offered rate, not the host's speed.
    crate::normalize(
        &mut rep,
        &probe,
        &["setup_s", "flow_s_p50", "flow_s_tail"],
        &[],
    );
    rep.notes.push(format!(
        "open loop: {n_open} jobs at {RATE}/s from one connection; saturation: {} batches of \
         one mix cycle from {CLIENTS} connections",
        batch_s.len()
    ));
    rep.attempted = (n_open + batch_jobs.len()) as u64;

    // Answers: every job done, its routes equal to its chip's reference.
    let mut slice_s = Vec::with_capacity(n_open);
    let mut queue_wait_s = Vec::with_capacity(n_open);
    let open_jobs = open.jobs.iter().map(|j| (&j.name, j.chip, Some(j)));
    let batched = batch_jobs.iter().map(|(name, chip)| (name, *chip, None));
    for (name, chip, open_job) in open_jobs.chain(batched) {
        let jd = dir.join("out").join(name);
        let status = std::fs::read_to_string(jd.join("status")).unwrap_or_default();
        if status.split_whitespace().next() != Some("done") {
            rep.fail(format!("{name}: status `{}`", status.trim()));
            continue;
        }
        let routes = std::fs::read_to_string(jd.join("routes.txt")).unwrap_or_default();
        if routes != refs[chip].routes {
            rep.fail(format!("{name}: routes differ from an in-process pass"));
            continue;
        }
        let Some(job) = open_job else { continue };
        let stats_text = std::fs::read_to_string(jd.join("stats.json")).unwrap_or_default();
        let spans = span_totals(&stats_text).map_err(|e| format!("{name}: stats.json: {e}"))?;
        // The job's slice is its `flow.*` spans: partition, Level A,
        // Level B (checkpoint writes included) and verify.
        let slice_ns: u64 = spans
            .iter()
            .filter(|s| s.0.starts_with("flow."))
            .map(|s| s.2)
            .sum();
        let slice = slice_ns as f64 / 1e9;
        slice_s.push(slice);
        queue_wait_s.push(job.times.latency() - job.accept_s - slice);
    }

    if args.trace {
        let job_s: Vec<f64> = jobs.iter().map(|j| j.times.latency()).collect();
        let accept_ms: Vec<f64> = jobs.iter().map(|j| j.accept_s * 1e3).collect();
        rep.set("job_s_p50", stats::median(&job_s));
        rep.set_tail("job_s_tail", stats::tail(&job_s));
        rep.set("accept_ms_p50", stats::median(&accept_ms));
        rep.set_tail("accept_ms_tail", stats::tail(&accept_ms));
        // The composed flow's layers per mix cycle, plain and traced
        // alternately, in process.
        let collector = ocr_obs::Collector::new();
        let mut traced_passes = Vec::with_capacity(TRACED_CYCLES * CYCLE);
        let (mut plain_sum, mut traced_sum) = (0.0, 0.0);
        for k in 0..TRACED_CYCLES * CYCLE {
            let pos = k % CYCLE;
            let chip = &chips[cycle_chip(pos)];
            let id = k as u64;
            let mut order = [false, true];
            if k % 2 == 1 {
                order.reverse();
            }
            for traced in order {
                if traced {
                    let t =
                        ocr_obs::with_collector(&collector, || flow::run_pass(chip, &tracer, id))?;
                    traced_sum += t.times.flow;
                    traced_passes.push(t);
                } else {
                    plain_sum += flow::run_pass(chip, &plain, id)?.times.flow;
                }
            }
        }
        crate::set_flow_layers(&mut rep, &traced_passes, &collector.snapshot(), CYCLE);
        rep.set_ratio(
            "obs.overhead_share",
            Ratio {
                num: traced_sum - plain_sum,
                den: plain_sum,
            },
        );
        // Checkpoint writes of one mix cycle, every slice counted.
        let spec = JobSpec::new("replay", "-");
        let (mut ckpt_writes, mut ckpt_ns) = (0, 0);
        for pos in 0..CYCLE {
            let (w, ns) =
                sliced_ckpt_writes(&chips[cycle_chip(pos)], &spec, &base.join("replay.ckpt"))?;
            ckpt_writes += w;
            ckpt_ns += ns;
        }
        rep.set("serve.ckpt_writes", ckpt_writes as f64);
        rep.set("serve.ckpt_write_s", ckpt_ns as f64 / 1e9);
        let ping_p50 = stats::median(&open.ping_ms);
        rep.set("wire.ping_ms_p50", ping_p50);
        rep.set(
            "serve.accept_over_ping_ms",
            stats::median(&accept_ms) - ping_p50,
        );
        rep.set("serve.slice_s_p50", stats::median(&slice_s));
        rep.set("serve.daemon_rss_mb", daemon_rss_mb);
        rep.set("serve.batch_s_p50", stats::median(&batch_s));
        rep.set_ratio(
            "serve.saturated_jobs_per_s",
            Ratio {
                num: batch_jobs.len() as f64,
                den: batch_s.iter().sum(),
            },
        );
        let service = std::fs::read_to_string(dir.join("out").join("serve-stats.json"))
            .map_err(|e| format!("serve-stats.json: {e}"))?;
        rep.set("serve.rounds", counter(&service, "serve.rounds") as f64);
        rep.set(
            "serve.preemptions",
            counter(&service, "serve.preemptions") as f64,
        );
        rep.set(
            "serve.queue_depth_peak",
            counter(&service, "serve.queue.depth") as f64,
        );
        rep.set(
            "journal.appends",
            counter(&service, "journal.append") as f64,
        );
        rep.set(
            "net.rejected",
            (counter(&service, "net.rejected.quota") + counter(&service, "net.rejected.overload"))
                as f64,
        );
        let run_ns: u64 = span_totals(&service)?
            .iter()
            .filter(|s| s.0 == "serve.run")
            .map(|s| s.2)
            .sum();
        rep.set_ratio(
            "exec.busy_share",
            Ratio {
                num: counter(&service, "exec.busy_ns") as f64,
                den: (run_ns * MAX_CONCURRENT as u64) as f64,
            },
        );
        rep.set("serve.queue_wait_s_p50", stats::median(&queue_wait_s));
        let lag_max = jobs.iter().map(|j| j.times.lag()).fold(0.0, f64::max);
        rep.set("load.lag_ms_max", lag_max * 1e3);
        rep.notes.push(
            "job, accept, ping, slice and queue-wait figures are the open loop's; slice and \
             queue-wait use each job's last slice; flow layers and checkpoint writes are per \
             mix cycle, in process; service counters cover the daemon's whole life"
                .to_string(),
        );
        rep.trace_json = Some(tracer.to_json());
    }
    clear(&base);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_holds_the_same_mix() {
        let mix = job_mix(3, 3 * CYCLE);
        for cycle in mix.chunks(CYCLE) {
            let mut c = cycle.to_vec();
            c.sort();
            let want: Vec<usize> = (0..CYCLE).map(cycle_chip).collect();
            assert_eq!(c, want);
        }
        for (k, &c) in mix.iter().enumerate() {
            if c == 2 {
                assert_eq!(mix.get(k + 1), Some(&1), "ex3 is followed by ami33");
            }
        }
        assert_eq!(mix, job_mix(3, 3 * CYCLE));
        assert_ne!(mix, job_mix(4, 3 * CYCLE));
    }
}
