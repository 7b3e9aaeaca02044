//! The repository benchmark: the paper's over-cell flow on the paper's
//! chips (`suite`) and on ×8 scale-ups (`scale8`), and an open-loop load
//! on a journaled `ocr serve` daemon over TCP (`serve`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|scale8|serve --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spread suite
//! ```
//!
//! Run from the repository root. A run prints notes as `#` lines and, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md` for what each
//! metric measures and why each workload exists.

mod calib;
mod flow;
mod serve;
mod stats;
mod trace;

use flow::{Chip, Counts};
use stats::{Ratio, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Worker threads the router runs with, on every workload.
const OCR_THREADS: &str = "2";

/// The exact per-chip counts every run is checked against.
const RECORDED_COUNTS: &str = include_str!("../counts.txt");

/// End-to-end metrics, printed by every `--trace 0` run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flow_s_p50", "s"),
    ("flow_s_tail", "s"),
    ("jobs_per_s", "1/s"),
    ("wirelength", "dbu"),
    ("vias", "count"),
    ("corners", "count"),
    ("layout_area", "dbu2"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run: `(name, unit)`.
/// The job and accept latencies lead the list: they are end-to-end
/// figures, kept here because on the serve workload they follow the
/// disk's fsync latency, whose drift from run to run exceeds any bound an
/// end-to-end metric may have (see README.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("accept_ms_p50", "ms"),
    ("accept_ms_tail", "ms"),
    ("core.partition_s", "s"),
    ("channel.route_s", "s"),
    ("channel.tracks", "count"),
    ("grid.build_s", "s"),
    ("grid.cells", "count"),
    ("core.level_b_s", "s"),
    ("core.connections", "count"),
    ("core.mbfs_vertices", "count"),
    ("core.window_expansions", "count"),
    ("core.rips", "count"),
    ("maze.fallbacks", "count"),
    ("maze.cells", "count"),
    ("core.mbfs_ok_share", "share"),
    ("maze.fallback_share", "share"),
    ("core.level_b_work_per_s", "1/s"),
    ("verify.s", "s"),
    ("verify.spacing_s", "s"),
    ("serve.daemon_rss_mb", "MB"),
    ("wire.ping_ms_p50", "ms"),
    ("serve.accept_over_ping_ms", "ms"),
    ("serve.slice_s_p50", "s"),
    ("serve.batch_s_p50", "s"),
    ("serve.saturated_jobs_per_s", "1/s"),
    ("serve.ckpt_writes", "count"),
    ("serve.ckpt_write_s", "s"),
    ("serve.rounds", "count"),
    ("serve.preemptions", "count"),
    ("serve.queue_depth_peak", "count"),
    ("journal.appends", "count"),
    ("net.rejected", "count"),
    ("exec.busy_share", "share"),
    ("serve.queue_wait_s_p50", "s"),
    ("load.lag_ms_max", "ms"),
    ("obs.overhead_share", "share"),
    ("failed_share", "share"),
    ("host.slowdown", "ratio"),
    ("flow_s_p50_wall", "s"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: passes, or submitted jobs.
    pub attempted: u64,
    /// Failed operations, each with its reason.
    pub failures: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub values: BTreeMap<&'static str, f64>,
    /// Notes printed before the result: bases of ratios, tail
    /// percentiles and sample counts.
    pub notes: Vec<String>,
    /// The benchmark's own spans (traced runs only), as JSON.
    pub trace_json: Option<String>,
}

impl Report {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: FAILED {why}");
        self.failures.push(why);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a tail metric and notes which percentile it is.
    pub fn set_tail(&mut self, name: &'static str, tail: Option<Tail>) {
        let t = tail.unwrap_or(Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            n: 0,
        });
        self.set(name, t.value);
        self.notes
            .push(format!("{name} is p{:.1} of {} samples", t.percentile, t.n));
    }

    /// Sets a ratio metric and notes its bases.
    pub fn set_ratio(&mut self, name: &'static str, r: Ratio) {
        self.set(name, r.value());
        self.notes.push(format!("{name} = {}", r.describe()));
    }
}

/// Runs `f` and returns its value with the seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Recorded counts by chip name.
fn recorded() -> BTreeMap<String, Counts> {
    Counts::parse_file(RECORDED_COUNTS)
        .expect("perfbench/counts.txt parses")
        .into_iter()
        .collect()
}

/// The `suite` and `scale8` workloads: a closed loop of passes, each
/// chip once per round in a seeded order, until `seconds` have passed.
/// With `trace`, every pass runs twice, plain and traced, alternating
/// which goes first, so the two are compared on the same chips.
///
/// `setup_s` is the median of `setups` generations of the chips: one
/// before the loop and the rest spread evenly over it, so they see the
/// same host conditions as the passes. Their time is not charged to the
/// loop, and neither is that of the `probes_per_round` host-speed probe
/// samples taken before each round.
fn run_flow(
    generate: impl Fn() -> Vec<Chip>,
    setups: usize,
    probes_per_round: usize,
    args: &Args,
) -> Report {
    let mut rep = Report::default();
    let mut probe = calib::Probe::new();
    let (chips, first) = timed(&generate);
    let mut setup_s = vec![first];
    let expected = recorded();
    // Reference routes double as the warm-up pass of every chip.
    let refs: Vec<Option<String>> = chips
        .iter()
        .map(|c| match flow::reference_routes(c) {
            Ok(r) => Some(r),
            Err(e) => {
                rep.fail(format!("reference route: {e}"));
                None
            }
        })
        .collect();
    for c in &chips {
        if !expected.contains_key(&c.name) {
            rep.fail(format!("{}: no recorded counts", c.name));
        }
    }
    let plain = Tracer::new(false);
    let traced = Tracer::new(true);
    let collector = ocr_obs::Collector::new();
    let mut rng = ocr_gen::Rng::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..chips.len()).collect();
    let mut flow_s = Vec::new();
    let mut job_s = Vec::new();
    let mut accept_ms = Vec::new();
    let mut traced_passes: Vec<flow::Pass> = Vec::new();
    let (mut plain_flow_sum, mut traced_flow_sum) = (0.0, 0.0);
    let mut per_round = Counts::default();
    let mut id = 0u64;
    let t0 = Instant::now();
    // Seconds of the loop spent on set-up and probe samples.
    let mut sampling = 0.0;
    let measured = |sampling: f64| t0.elapsed().as_secs_f64() - sampling;
    let mut round = 0usize;
    while round == 0 || measured(sampling) < args.seconds {
        let due = args.seconds * setup_s.len() as f64 / setups as f64;
        if setup_s.len() < setups && measured(sampling) >= due {
            let (_, secs) = timed(&generate);
            setup_s.push(secs);
            sampling += secs;
        }
        rng.shuffle(&mut order);
        let mut round_flow = 0.0;
        for _ in 0..probes_per_round {
            sampling += probe.sample();
        }
        for &i in &order {
            let chip = &chips[i];
            let mut runs = vec![false];
            if args.trace {
                runs.push(true);
                if round % 2 == 1 {
                    runs.reverse();
                }
            }
            for is_traced in runs {
                id += 1;
                rep.attempted += 1;
                let pass = if is_traced {
                    ocr_obs::with_collector(&collector, || flow::run_pass(chip, &traced, id))
                } else {
                    flow::run_pass(chip, &plain, id)
                };
                let pass = match pass {
                    Ok(p) => p,
                    Err(e) => {
                        rep.fail(e);
                        continue;
                    }
                };
                if let Some(why) =
                    flow::check_pass(chip, &pass, expected.get(&chip.name), refs[i].as_deref())
                {
                    rep.fail(why);
                    continue;
                }
                if round == 0 && !is_traced {
                    per_round.add(&pass.counts);
                }
                if is_traced {
                    traced_flow_sum += pass.times.flow;
                    traced_passes.push(pass);
                } else {
                    plain_flow_sum += pass.times.flow;
                    round_flow += pass.times.flow;
                    job_s.push(pass.times.job);
                    accept_ms.push(pass.times.accept * 1e3);
                }
            }
        }
        flow_s.push(round_flow);
        round += 1;
    }
    let wall = measured(sampling);
    rep.notes.push(format!(
        "{round} pass(es) over {} chip(s) in {wall:.3} s",
        chips.len()
    ));
    rep.set("setup_s", stats::median(&setup_s));
    rep.notes.push(format!(
        "setup_s is the median of {} set-ups spread over the run",
        setup_s.len()
    ));
    rep.set("flow_s_p50", stats::median(&flow_s));
    rep.set_tail("flow_s_tail", stats::tail(&flow_s));
    rep.set("job_s_p50", stats::median(&job_s));
    rep.set_tail("job_s_tail", stats::tail(&job_s));
    rep.set("accept_ms_p50", stats::median(&accept_ms));
    rep.set_tail("accept_ms_tail", stats::tail(&accept_ms));
    rep.set("jobs_per_s", job_s.len() as f64 / wall);
    set_quality(&mut rep, &per_round);
    rep.set("peak_rss_mb", peak_rss_mb("self"));
    normalize(
        &mut rep,
        &probe,
        &["setup_s", "flow_s_p50", "flow_s_tail"],
        &["jobs_per_s"],
    );
    if args.trace {
        set_flow_layers(&mut rep, &traced_passes, &collector.snapshot(), chips.len());
        rep.set_ratio(
            "obs.overhead_share",
            Ratio {
                num: traced_flow_sum - plain_flow_sum,
                den: plain_flow_sum,
            },
        );
        for name in [
            "serve.daemon_rss_mb",
            "wire.ping_ms_p50",
            "serve.accept_over_ping_ms",
            "serve.slice_s_p50",
            "serve.batch_s_p50",
            "serve.saturated_jobs_per_s",
            "serve.ckpt_writes",
            "serve.ckpt_write_s",
            "serve.rounds",
            "serve.preemptions",
            "serve.queue_depth_peak",
            "journal.appends",
            "net.rejected",
            "exec.busy_share",
            "serve.queue_wait_s_p50",
            "load.lag_ms_max",
        ] {
            // This workload has no daemon, wire, journal or open loop.
            rep.set(name, 0.0);
        }
        rep.trace_json = Some(traced.to_json());
    }
    rep
}

/// Scales the run's end-to-end `times` and `rates` to the reference
/// host by the probe's median slowdown (see `calib.rs`), keeping the
/// wall-clock `flow_s_p50` and the slowdown as per-layer figures.
pub fn normalize(rep: &mut Report, probe: &calib::Probe, times: &[&str], rates: &[&str]) {
    let probe_s = stats::median(probe.samples());
    let slowdown = calib::slowdown(probe_s);
    rep.notes.push(format!(
        "host slowdown {slowdown:.4}: median probe {:.3} ms over {} samples, reference {:.3} ms; \
         end-to-end times are divided by it, rates multiplied",
        probe_s * 1e3,
        probe.samples().len(),
        calib::REFERENCE_S * 1e3
    ));
    rep.set("host.slowdown", slowdown);
    rep.set("flow_s_p50_wall", rep.values["flow_s_p50"]);
    for (names, scale) in [(times, 1.0 / slowdown), (rates, slowdown)] {
        for &name in names {
            if let Some(v) = rep.values.get_mut(name) {
                *v *= scale;
            }
        }
    }
}

/// Route quality of one pass over every chip of the workload.
pub fn set_quality(rep: &mut Report, c: &Counts) {
    rep.set("wirelength", c.wirelength as f64);
    rep.set("vias", c.vias as f64);
    rep.set("corners", c.corners as f64);
    rep.set("layout_area", c.layout_area as f64);
}

/// Per-layer metrics of the composed flow, from traced passes: times and
/// counts per pass over the workload's chips (`chips` chip passes), so
/// they add up to `flow_s`.
pub fn set_flow_layers(
    rep: &mut Report,
    passes: &[flow::Pass],
    program: &ocr_obs::Telemetry,
    chips: usize,
) {
    let per_round = chips as f64 / passes.len().max(1) as f64;
    let sum = |f: &dyn Fn(&flow::Pass) -> f64| passes.iter().map(f).sum::<f64>();
    rep.set("core.partition_s", sum(&|p| p.times.partition) * per_round);
    rep.set("channel.route_s", sum(&|p| p.times.channel) * per_round);
    rep.set("channel.tracks", sum(&|p| p.tracks as f64) * per_round);
    rep.set("grid.build_s", sum(&|p| p.times.grid) * per_round);
    rep.set("grid.cells", sum(&|p| p.grid_cells as f64) * per_round);
    let level_b_s = sum(&|p| p.times.level_b);
    rep.set("core.level_b_s", level_b_s * per_round);
    let st = |f: &dyn Fn(&ocr_core::RoutingStats) -> usize| sum(&|p| f(&p.stats) as f64);
    let connections = st(&|s| s.connections);
    let mbfs = st(&|s| s.expanded_vertices);
    let maze = st(&|s| s.maze_expanded);
    let expansions = st(&|s| s.window_expansions);
    let candidates = st(&|s| s.candidates_examined);
    let fallbacks = st(&|s| s.maze_fallbacks);
    rep.set("core.connections", connections * per_round);
    rep.set("core.mbfs_vertices", mbfs * per_round);
    rep.set("core.window_expansions", expansions * per_round);
    rep.set("core.rips", st(&|s| s.rips) * per_round);
    rep.set("maze.fallbacks", fallbacks * per_round);
    rep.set("maze.cells", maze * per_round);
    rep.set_ratio(
        "core.mbfs_ok_share",
        Ratio {
            num: candidates,
            den: candidates + expansions,
        },
    );
    rep.set_ratio(
        "maze.fallback_share",
        Ratio {
            num: fallbacks,
            den: connections,
        },
    );
    rep.set_ratio(
        "core.level_b_work_per_s",
        Ratio {
            num: mbfs + maze,
            den: level_b_s,
        },
    );
    rep.set("verify.s", sum(&|p| p.times.verify) * per_round);
    let spacing_ns: u64 = program
        .aggregate()
        .iter()
        .filter(|a| a.name == "verify.spacing")
        .map(|a| a.total_ns)
        .sum();
    rep.set("verify.spacing_s", spacing_ns as f64 / 1e9 * per_round);
}

/// Parsed command line of a measured run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Mode {
    Run(Args),
    Record,
    Check,
    Spread(String),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    match argv.first().map(String::as_str) {
        Some("--record") if argv.len() == 1 => return Ok(Mode::Record),
        Some("--check") if argv.len() == 1 => return Ok(Mode::Check),
        Some("--spread") if argv.len() == 2 => return Ok(Mode::Spread(argv[1].clone())),
        _ => {}
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = get("--workload")?;
    if !["suite", "scale8", "serve"].contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Mode::Run(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    }))
}

/// FNV-1a 64 over the router's sources, so a result from a checkout
/// that is not a git repository still names the code it measured.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", ocr_io::wire::fnv1a_64_bytes(&bytes))
}

/// Host and build context stamped on every result: timings are recorded
/// with it and never asserted.
fn host_stamp(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"ocr_threads\":{},\"git_rev\":\"{git}\",\"source_fnv64\":\"{}\",\
         \"profile\":\"{profile}\",\"cpu\":\"{}\"}}",
        OCR_THREADS,
        source_digest(root),
        cpu.replace(['"', '\\'], "")
    )
}

/// Renders the result line; every metric of the mode's table must be set.
fn result_json(rep: &Report, table: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (k, (name, unit)) in table.iter().enumerate() {
        let v = rep
            .values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if k > 0 {
            metrics.push_str(", ");
        }
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.failures.is_empty(),
        rep.attempted.max(1),
        rep.failures.len()
    )
}

/// `--record` and `--check`: one pass of every `suite` and `scale8`
/// chip, printing its counts line or comparing it with the record.
fn record_or_check(check: bool) -> bool {
    let expected = recorded();
    let tracer = Tracer::new(false);
    let mut ok = true;
    println!("# {}", Counts::HEADER);
    for chip in flow::suite_chips().into_iter().chain(flow::scale8_chips()) {
        let reference = flow::reference_routes(&chip);
        let pass = flow::run_pass(&chip, &tracer, 0);
        let why = match (&reference, &pass) {
            (Err(e), _) | (_, Err(e)) => Some(e.clone()),
            (Ok(r), Ok(p)) => flow::check_pass(
                &chip,
                p,
                if check {
                    expected.get(&chip.name)
                } else {
                    None
                },
                Some(r),
            ),
        };
        if check && !expected.contains_key(&chip.name) {
            println!("{}: no recorded counts", chip.name);
            ok = false;
        }
        match (why, pass) {
            (Some(why), _) => {
                println!("{why}");
                ok = false;
            }
            (None, Ok(p)) => println!("{}", p.counts.line(&chip.name)),
            (None, Err(_)) => unreachable!("a failed pass has a reason"),
        }
    }
    ok
}

/// `--spread WORKLOAD`: the median and the interquartile distance as a
/// share of it, per metric, over the plain runs saved in `.perfbench/` —
/// the steadiness figure a bound has to cover.
fn spread(root: &Path, workload: &str) -> Result<(), String> {
    let dir = root.join(".perfbench");
    let prefix = format!("{workload}-seed");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with(&prefix) && name.ends_with("-trace0.json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let doc = ocr_obs::json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or(format!("{name}: no metrics"))?;
        for (metric, _) in END_TO_END {
            if let Some(v) = metrics
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
            {
                values.entry(metric.to_string()).or_default().push(v);
            }
        }
        runs += 1;
    }
    println!("{workload}: {runs} run(s)");
    for (metric, v) in &values {
        let share = stats::spread(v).map_or("n/a".to_string(), |s| format!("{s:.4}"));
        println!(
            "{metric:<16} median {:<14.6} spread {share}",
            stats::median(v)
        );
    }
    Ok(())
}

fn main() {
    std::env::set_var("OCR_THREADS", OCR_THREADS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload suite|scale8|serve --seed N --seconds S --trace 0|1\n       \
                 perfbench --check | --record | --spread WORKLOAD"
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    let args = match mode {
        Mode::Record => std::process::exit(if record_or_check(false) { 0 } else { 1 }),
        Mode::Check => {
            let ok = record_or_check(true);
            println!("{}", if ok { "check: OK" } else { "check: FAILED" });
            std::process::exit(if ok { 0 } else { 1 });
        }
        Mode::Spread(workload) => {
            if let Err(e) = spread(&root, &workload) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Mode::Run(args) => args,
    };
    let host = host_stamp(&root);
    println!("# host {host}");
    let ticks_before = cpu_ticks();
    let mut rep = match args.workload.as_str() {
        "suite" => run_flow(flow::suite_chips, 25, 1, &args),
        "scale8" => run_flow(flow::scale8_chips, 7, 4, &args),
        _ => match serve::run(&root, &args) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: serve: {e}");
                std::process::exit(1);
            }
        },
    };
    if let (Some(a), Some(b)) = (ticks_before, cpu_ticks()) {
        // Time the hypervisor gave this host's CPUs to someone else: a
        // run with a large share measured a slower machine.
        let steal = Ratio {
            num: b.0.saturating_sub(a.0) as f64,
            den: b.1.saturating_sub(a.1) as f64,
        };
        rep.notes.push(format!(
            "cpu steal share during the run: {}",
            steal.describe()
        ));
    }
    for note in &rep.notes {
        println!("# {note}");
    }
    rep.set_ratio(
        "failed_share",
        Ratio {
            num: rep.failures.len() as f64,
            den: rep.attempted as f64,
        },
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result_json(&rep, table);
    let out_dir = root.join(".perfbench");
    let _ = std::fs::create_dir_all(&out_dir);
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let doc = format!(
        "{{\"host\":{host},\"workload\":\"{}\",\"seed\":{},\"result\":{line},\"spans\":{}}}\n",
        args.workload,
        args.seed,
        rep.trace_json.as_deref().unwrap_or("[]")
    );
    if let Err(e) = std::fs::write(&file, doc) {
        eprintln!("perfbench: {}: {e}", file.display());
    }
    println!("{line}");
    std::process::exit(if rep.failures.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = ocr_obs::json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        match parse_args(&args("--workload serve --seed 3 --seconds 30 --trace 1")) {
            Ok(Mode::Run(a)) => {
                assert_eq!(
                    (a.workload.as_str(), a.seed, a.seconds, a.trace),
                    ("serve", 3, 30.0, true)
                )
            }
            _ => panic!("a full run line parses"),
        }
        for bad in [
            "--workload other --seed 1 --seconds 1 --trace 0",
            "--workload suite --seed x --seconds 1 --trace 0",
            "--workload suite --seed 1 --seconds 0 --trace 0",
            "--workload suite --seed 1 --seconds 1 --trace 2",
            "--workload suite --seed 1 --seconds 1",
            "--workload suite --workload suite --seed 1 --seconds 1 --trace 0",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
