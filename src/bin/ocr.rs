//! `ocr` — command-line driver for the over-cell router.
//!
//! ```text
//! ocr generate <ami33|xerox|ex3|random|stress> [--seed N] [--scale N] [-o chip.ocr]
//! ocr route <chip.ocr> [--flow overcell|channel2|channel3|channel4]
//!                      [--order NAME|portfolio[:K]]
//!                      [--svg out.svg] [--routes out.txt] [--salvage]
//!                      [--stats] [--stats-json out.json] [--trace-out out.trace]
//! ocr route --suite [--salvage] [--stats] [--stats-json out.json] [--trace-out out.trace]
//! ocr verify <chip.ocr> [--flow ...] [--routes in.txt] [--strict]
//! ocr verify --suite [--strict]
//! ocr chaos [--seed N] [--trials K]
//! ocr serve [--spool DIR] [--manifest FILE] [--listen ADDR] [--out DIR]
//!           [--journal DIR] [--drain] [--max-total-steps N]
//!           [--max-concurrent N] [--quantum N]
//! ocr submit --addr HOST:PORT (--chip FILE | --ping | --shutdown)
//! ocr stats <chip.ocr>
//! ```

use overcell_router::core::{
    ordering_from_name, resume_from_doc, CheckpointSpec, CostWeights, FlowKind, FlowOptions,
    FlowResult, NetOrdering, RunSession,
};
use overcell_router::exec::RunControl;
use overcell_router::fault;
use overcell_router::gen::{random::small_random, suite, GeneratedChip};
use overcell_router::io::ckpt::{fnv1a_64, parse_checkpoint};
use overcell_router::io::{
    atomic_write, load_chip, parse_chip, parse_routes, write_chip, write_routes,
};
use overcell_router::netlist::{ChipMetrics, Layout, NetClass, RowPlacement};
use overcell_router::render::render_svg;
use overcell_router::verify::{verify_with, VerifyOptions};
use std::process::ExitCode;

const USAGE: &str = "\
ocr — multi-layer over-cell router (Katsadas & Shen, DAC 1990)

USAGE:
  ocr generate <ami33|xerox|ex3|random|stress> [--seed N] [--scale N]
               [-o FILE]
      Generate a benchmark chip and write it as .ocr text (stdout by
      default). --seed picks the `random` chip; --scale N (1 to 64,
      default 1) picks the `stress` family's ami33xN chip, the ami33
      statistics scaled by N (8 is the chip perfbench's scale8 workload
      routes).
  ocr route <chip.ocr> [--flow overcell|channel2|channel3|channel4]
                       [--order longest|shortest|congestion|criticality|
                                shuffle[:SEED]|portfolio[:K]]
                       [--svg FILE] [--routes FILE] [--salvage]
                       [--weights default|dense|length-only|k=v,...]
                       [--stats] [--stats-json FILE] [--trace-out FILE]
                       [--max-steps N] [--deadline-ms MS]
                       [--checkpoint-out FILE [--checkpoint-every N]]
                       [--resume FILE]
      Route the chip with the selected flow (default: overcell), print
      metrics, optionally write an SVG and the routed geometry.
      --order picks the Level B net-ordering strategy (`ocr-order-v1`;
      overcell flow only; default: longest). `portfolio[:K]` runs K
      strategies (default 4: longest, congestion, criticality,
      shuffle:1; K > 4 adds shuffle:2, shuffle:3, …) to completion on
      the ocr-exec pool, prints every strategy's unrouted nets and
      steps, and keeps the minimum — fewest unrouted nets, then lowest
      steps, then lowest strategy index — so the routed output is
      bit-identical at any OCR_THREADS and never worse in unrouted
      nets than --order longest. The portfolio manages its own run
      controls, so it cannot be combined with
      --max-steps/--deadline-ms/--checkpoint-out/--resume.
      --weights sets the Level B cost function (overcell flow only):
      a preset name (default, dense, length-only) or comma-separated
      overrides of the defaults (w1, w21, w22, w23, w24, radius —
      e.g. `--weights w1=2.0,w24=0.5`). Non-finite values are rejected
      before routing starts.
      --salvage degrades gracefully instead of aborting: Level B setup
      errors and per-net panics fail only the affected net, and the
      result carries a per-net degradation report.
      --max-steps bounds the run by a deterministic work budget (one
      step per Level B search-window attempt or rip-up; the same budget
      trips at the same point at any OCR_THREADS). --deadline-ms adds a
      best-effort wall-clock limit. A tripped run is not an error: the
      unfinished nets are declared failed with a typed reason
      (budget-exceeded / cancelled) and the committed wiring still
      passes the oracle.
      --checkpoint-out writes `ocr-ckpt-v1` progress snapshots every
      --checkpoint-every net commits (default 1) plus a final one;
      --resume continues from such a file (the flow is taken from the
      checkpoint unless --flow repeats it, and the chip must be the
      same). An interrupted run resumed this way produces byte-identical
      routes to one that was never interrupted.
      Any of --stats/--stats-json/--trace-out turns on ocr-obs
      telemetry (observational only — the routed design is identical
      with it on or off): --stats prints a per-phase timing table,
      --stats-json writes machine-readable `ocr-stats-v1` JSON, and
      --trace-out writes a Chrome trace (load via chrome://tracing or
      https://ui.perfetto.dev).
  ocr route --suite [--stats] [--stats-json FILE] [--trace-out FILE]
      Route every suite chip with every flow (in parallel across the
      ocr-exec pool; set OCR_THREADS to bound it) and print one metrics
      line per combination. The telemetry flags cover every (chip,
      flow) combination in one document.
  ocr verify <chip.ocr> [--flow overcell|channel2|channel3|channel4]
                        [--routes FILE] [--strict]
      Run the independent ocr-verify oracle. Routes the chip with the
      selected flow (default: overcell), or, with --routes, audits
      existing routed geometry against the chip file's layout as-is.
      --strict checks full drawn-width spacing on all four layers.
      Prints the report; exits non-zero when violations are found.
  ocr verify --suite [--strict]
      Verify every flow on every suite chip; exits non-zero when any
      combination is unclean.
  ocr chaos [--seed N] [--trials K]
      Deterministic chaos harness: run K over-cell salvage trials over
      perturbed suite chips with the seeded fault plan armed — injected
      panics, forced rip-up storms, sealed cells/terminals, corrupted
      chip text fed to the parser. Each trial is isolated in the worker
      pool (a panicking trial is retried once, then reported poisoned
      without aborting the run) and its salvaged result is checked by
      the ocr-verify oracle. Exits non-zero when any completed trial is
      oracle-unclean. Defaults: --seed 1, --trials 8.
  ocr serve [--spool DIR] [--manifest FILE] [--listen ADDR] [--out DIR]
            [--journal DIR] [--max-total-steps N] [--max-concurrent N]
            [--quantum N] [--poll-ms MS] [--drain] [--addr-file FILE]
            [--stage DIR] [--max-conns N] [--net-timeout-ms MS]
            [--net-idle-ms MS] [--max-frame-bytes N] [--max-pending N]
            [--tenant-rate N] [--tenant-burst N]
      Batch routing service. Jobs come from an `ocr-jobs-v1` manifest
      (--manifest, chip paths relative to it), a spool directory
      (--spool), and/or a TCP listener (--listen): drop `*.job` files in
      the spool and they are consumed in filename order; a file named
      `stop` shuts the service down after the queue drains, and --drain
      processes what is already spooled and exits.
      A deterministic scheduler admits up to --max-concurrent jobs per
      round onto the ocr-exec pool, slicing each job's work into
      --quantum step budgets (doubling per preemption); a job that
      outruns its slice is preempted into an `ocr-ckpt-v1` checkpoint at
      its next net-commit boundary and resumed later. --max-total-steps
      caps deterministic work across all jobs: when it drains, running
      jobs end `preempted` and queued ones `rejected`. Each job is
      answered under <out>/<name>/ with `status`, `routes.txt`,
      `stats.json` and its checkpoint, plus service-level `serve.log`
      (deterministic: step counts, never wall clock), `results.txt`
      (`ocr-results-v1`) and `serve-stats.json` (`ocr-stats-v1`
      service telemetry). Exits non-zero when any job ends `failed`.
      --journal keeps a crash-safe write-ahead job journal
      (`ocr-journal-v1`, DIR/serve.journal): every accepted job and
      every state transition is recorded durably before it takes
      effect, and a restarted service replays the journal first —
      finished jobs keep their answers, preempted jobs resume from
      their checkpoints, and jobs whose answers were torn mid-write
      re-run — so a killed daemon restarted with the same --journal,
      --out and spool/manifest produces byte-identical routes and
      results. A torn or corrupted journal tail is dropped with a
      warning in serve.log, never an error.
      --listen binds an `ocr-wire-v1` TCP front-end on ADDR (port 0
      picks an ephemeral port; the bound address is printed and, with
      --addr-file, written to FILE). Network submissions feed the same
      journaled intake as the spool, so their answers are byte-identical
      to spooled ones and survive a kill-restart. The front-end is
      bounded on every axis: at most --max-conns concurrent
      connections (excess clients wait in the kernel backlog), frames
      capped at --max-frame-bytes, a per-read/write deadline of
      --net-timeout-ms once a frame has started and --net-idle-ms
      between frames (slow-loris clients get `error timeout` and are
      disconnected), and at most --max-pending submissions queued ahead
      of the engine — beyond that, and once --max-total-steps is
      exhausted, clients get `rejected … overload retry-after <ms>`.
      --tenant-rate/--tenant-burst arm a per-tenant token-bucket quota
      (the `tenant` job option names the bucket; rate 0 caps each
      tenant at a hard burst); over-quota submissions get `rejected …
      quota retry-after <ms>`. Submitted chips are staged under --stage
      (default: <out>/net-stage). A wire `shutdown` request drains the
      service like a spool `stop`. Front-end counters (net.conns,
      net.frames, net.rejected.quota, net.rejected.overload,
      net.timeouts) land in serve-stats.json.
      Defaults: --max-concurrent 2, --quantum 256, --poll-ms 200,
      --max-conns 8, --net-timeout-ms 5000, --net-idle-ms 10000,
      --max-frame-bytes 1048576, --max-pending 64.
  ocr submit --addr HOST:PORT (--chip FILE | --ping | --shutdown)
             [--name NAME] [--flow F] [--order O] [--priority P]
             [--max-steps N] [--tenant T] [--salvage] [--verify]
             [--timeout-ms MS] [--tear-bytes N]
      `ocr-wire-v1` client for a running `ocr serve --listen` daemon.
      --chip submits the chip file inline (job name from --name or the
      file stem) and waits for the service's durable accept; exits
      non-zero on a typed rejection (quota, overload, closed) or wire
      error. --ping checks liveness; --shutdown asks the service to
      drain and exit. --tear-bytes N writes only the first N bytes of
      the submit frame and disconnects (a deliberately torn client for
      robustness smoke tests).
  ocr stats <chip.ocr>
      Print the chip's Table-1-style statistics.
  ocr help
      Show this message.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The declarative argument table of one subcommand: its name, the
/// flags that take a value, and the bare switches. One parser serves
/// every subcommand; a new flag is one string in a table, not a new
/// hand-rolled loop.
#[derive(Clone, Copy, Debug)]
struct ArgSpec {
    command: &'static str,
    value_flags: &'static [&'static str],
    switch_flags: &'static [&'static str],
}

const GENERATE_SPEC: ArgSpec = ArgSpec {
    command: "generate",
    value_flags: &["--seed", "--scale", "-o"],
    switch_flags: &[],
};

const ROUTE_SPEC: ArgSpec = ArgSpec {
    command: "route",
    value_flags: &[
        "--flow",
        "--order",
        "--svg",
        "--routes",
        "--stats-json",
        "--trace-out",
        "--max-steps",
        "--deadline-ms",
        "--checkpoint-out",
        "--checkpoint-every",
        "--resume",
        "--weights",
    ],
    switch_flags: &["--suite", "--stats", "--salvage"],
};

const VERIFY_SPEC: ArgSpec = ArgSpec {
    command: "verify",
    value_flags: &["--flow", "--routes"],
    switch_flags: &["--strict", "--suite"],
};

const CHAOS_SPEC: ArgSpec = ArgSpec {
    command: "chaos",
    value_flags: &["--seed", "--trials"],
    switch_flags: &[],
};

const SERVE_SPEC: ArgSpec = ArgSpec {
    command: "serve",
    value_flags: &[
        "--spool",
        "--manifest",
        "--out",
        "--journal",
        "--max-total-steps",
        "--max-concurrent",
        "--quantum",
        "--poll-ms",
        "--listen",
        "--addr-file",
        "--stage",
        "--max-conns",
        "--net-timeout-ms",
        "--net-idle-ms",
        "--max-frame-bytes",
        "--max-pending",
        "--tenant-rate",
        "--tenant-burst",
    ],
    switch_flags: &["--drain"],
};

const SUBMIT_SPEC: ArgSpec = ArgSpec {
    command: "submit",
    value_flags: &[
        "--addr",
        "--chip",
        "--name",
        "--flow",
        "--order",
        "--priority",
        "--max-steps",
        "--tenant",
        "--timeout-ms",
        "--tear-bytes",
    ],
    switch_flags: &["--salvage", "--verify", "--ping", "--shutdown"],
};

const STATS_SPEC: ArgSpec = ArgSpec {
    command: "stats",
    value_flags: &[],
    switch_flags: &[],
};

impl ArgSpec {
    /// Parses everything after the subcommand name. Unknown flags and
    /// value flags with a missing (or flag-like) value are usage errors
    /// — a typo must never be silently ignored.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Flags<'a>, String> {
        let command = self.command;
        let mut flags = Flags {
            command,
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if let Some(&name) = self.value_flags.iter().find(|&&n| n == arg) {
                match args.get(i + 1).map(|s| s.as_str()) {
                    Some(value) if !value.starts_with('-') || value == "-" => {
                        flags.values.push((name, value));
                        i += 2;
                    }
                    _ => return Err(format!("{command}: flag `{name}` requires a value")),
                }
            } else if let Some(&name) = self.switch_flags.iter().find(|&&n| n == arg) {
                flags.switches.push(name);
                i += 1;
            } else if arg.starts_with('-') {
                return Err(format!("{command}: unknown flag `{arg}`"));
            } else {
                flags.positionals.push(arg);
                i += 1;
            }
        }
        Ok(flags)
    }
}

/// Parsed flags of one subcommand: `--name value` pairs, bare switches,
/// and non-flag positionals, in order of appearance.
#[derive(Debug)]
struct Flags<'a> {
    command: &'static str,
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
    positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The flag's value parsed as `T`, with the normalized
    /// `"{command}: bad {flag}: {cause}"` error every subcommand shares.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|s| {
                s.parse()
                    .map_err(|e: T::Err| format!("{}: bad {name}: {e}", self.command))
            })
            .transpose()
    }

    /// [`Flags::parsed`] with a default for an absent flag.
    fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.parsed(name)?.unwrap_or(default))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(|s| s.as_str()) {
        Some("generate") => generate(args),
        Some("route") => route(args),
        Some("verify") => verify(args),
        Some("chaos") => chaos(args),
        Some("serve") => serve_cmd(args),
        Some("submit") => submit_cmd(args),
        Some("stats") => stats(args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// The largest `ocr generate stress --scale`: ×64 is 2,112 cells and
/// 7,872 nets, eight times perfbench's ×8 chip.
const MAX_STRESS_SCALE: usize = 64;

fn generate(args: &[String]) -> Result<(), String> {
    let flags = GENERATE_SPEC.parse(&args[1..])?;
    let which = *flags
        .positionals
        .first()
        .ok_or("generate: missing benchmark name")?;
    let seed: u64 = flags.parsed_or("--seed", 1)?;
    let chip = match which {
        "ami33" => suite::ami33_like(),
        "xerox" => suite::xerox_like(),
        "ex3" => suite::ex3_like(),
        "random" => small_random(8, 3, 4, 20, seed),
        "stress" => {
            // Bounded so a typo cannot ask for millions of cells.
            let scale: usize = flags.parsed_or("--scale", 1)?;
            if !(1..=MAX_STRESS_SCALE).contains(&scale) {
                return Err(format!(
                    "generate: bad --scale: must be 1 to {MAX_STRESS_SCALE}"
                ));
            }
            overcell_router::gen::generate(&suite::stress(scale))
        }
        other => return Err(format!("unknown benchmark `{other}`")),
    };
    let text = write_chip(&chip.layout, &chip.placement);
    match flags.value("-o") {
        Some(path) => {
            atomic_write(std::path::Path::new(path), &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} cells, {} nets, {} pins",
                chip.layout.cells.len(),
                chip.layout.nets.len(),
                chip.layout.total_pins()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn parse_flow(flags: &Flags) -> Result<FlowKind, String> {
    match flags.value("--flow") {
        None => Ok(FlowKind::OverCell),
        Some(name) => FlowKind::from_name(name).ok_or_else(|| format!("unknown flow `{name}`")),
    }
}

fn run_flow(
    kind: FlowKind,
    options: FlowOptions,
    layout: &Layout,
    placement: &RowPlacement,
) -> Result<FlowResult, String> {
    kind.build_with(options)
        .run(layout, placement)
        .map_err(|e| e.to_string())
}

/// Every (suite chip, flow) combination routed across the ocr-exec
/// pool; results come back in the same deterministic order regardless of
/// worker count.
fn suite_fanout(options: FlowOptions) -> Vec<(String, FlowKind, Result<FlowResult, String>)> {
    let chips: Vec<GeneratedChip> = suite::all();
    let combos: Vec<(usize, FlowKind)> = (0..chips.len())
        .flat_map(|c| FlowKind::ALL.into_iter().map(move |k| (c, k)))
        .collect();
    let results = ocr_exec::parallel_map(&combos, |&(c, kind)| {
        let chip = &chips[c];
        run_flow(kind, options, &chip.layout, &chip.placement)
    });
    combos
        .into_iter()
        .zip(results)
        .map(|((c, kind), res)| (chips[c].spec.name.clone(), kind, res))
        .collect()
}

/// Telemetry outputs requested on the `route` command line.
struct TelemetryOut<'a> {
    table: bool,
    stats_json: Option<&'a str>,
    trace_out: Option<&'a str>,
}

impl<'a> TelemetryOut<'a> {
    fn from_flags(flags: &Flags<'a>) -> Self {
        TelemetryOut {
            table: flags.has("--stats"),
            stats_json: flags.value("--stats-json"),
            trace_out: flags.value("--trace-out"),
        }
    }

    /// `true` when any output wants the flow run with telemetry on.
    fn wanted(&self) -> bool {
        self.table || self.stats_json.is_some() || self.trace_out.is_some()
    }

    /// Writes the requested machine-readable documents for the labeled
    /// runs (the `--stats` table is printed by the caller, per run).
    fn write(&self, runs: &[(String, FlowKind, ocr_obs::Telemetry)]) -> Result<(), String> {
        let flow_names: Vec<&'static str> = runs.iter().map(|&(_, kind, _)| kind.name()).collect();
        let labeled: Vec<ocr_obs::LabeledRun<'_>> = runs
            .iter()
            .zip(&flow_names)
            .map(|((chip, _, telemetry), &flow)| (chip.as_str(), flow, telemetry))
            .collect();
        if let Some(path) = self.stats_json {
            let text = ocr_obs::stats_json(&labeled);
            atomic_write(std::path::Path::new(path), &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        if let Some(path) = self.trace_out {
            let text = ocr_obs::chrome_trace(&labeled);
            atomic_write(std::path::Path::new(path), &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }
}

/// Parses the run-control flags of `route` into a [`RunSession`] (plus
/// the resolved flow, which `--resume` may dictate). Validation of the
/// resume file against the loaded chip happens here: flow and chip
/// fingerprint must match before any routing starts.
fn parse_run_session(
    flags: &Flags,
    layout: &Layout,
    placement: &RowPlacement,
) -> Result<(FlowKind, RunSession, bool), String> {
    let max_steps: Option<u64> = flags.parsed("--max-steps")?;
    let deadline_ms: Option<u64> = flags.parsed("--deadline-ms")?;
    let every: usize = flags.parsed_or("--checkpoint-every", 1)?;
    if every == 0 {
        return Err("route: --checkpoint-every must be at least 1".into());
    }
    if flags.value("--checkpoint-every").is_some() && flags.value("--checkpoint-out").is_none() {
        return Err("route: --checkpoint-every requires --checkpoint-out".into());
    }
    let resume = match flags.value("--resume") {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let doc = parse_checkpoint(layout, &text).map_err(|e| format!("{p}: {e}"))?;
            Some(resume_from_doc(doc).map_err(|e| format!("{p}: {e}"))?)
        }
        None => None,
    };
    let kind = match (flags.value("--flow"), &resume) {
        (Some(name), _) => {
            let kind = FlowKind::from_name(name).ok_or_else(|| format!("unknown flow `{name}`"))?;
            if let Some(r) = &resume {
                if kind.name() != r.flow {
                    return Err(format!(
                        "route: --flow {} contradicts the checkpoint's flow `{}`",
                        kind.name(),
                        r.flow
                    ));
                }
            }
            kind
        }
        (None, Some(r)) => FlowKind::from_name(&r.flow)
            .ok_or_else(|| format!("checkpoint names unknown flow `{}`", r.flow))?,
        (None, None) => FlowKind::OverCell,
    };
    let chip_hash = fnv1a_64(&write_chip(layout, placement));
    if let Some(r) = &resume {
        if r.chip_hash != chip_hash {
            return Err(
                "route: the checkpoint was written for a different chip (fingerprint mismatch)"
                    .into(),
            );
        }
    }
    let mut control = RunControl::new();
    if let Some(budget) = max_steps {
        control = control.with_step_budget(budget);
    }
    if let Some(ms) = deadline_ms {
        control = control.with_deadline_in(std::time::Duration::from_millis(ms));
    }
    if let Some(r) = &resume {
        // Steps stay cumulative across an interruption, so a resumed
        // run under the same --max-steps trips immediately; drop or
        // raise the budget to make progress.
        control = control.resumed_at(r.steps);
    }
    let session = RunSession {
        control,
        checkpoint: flags.value("--checkpoint-out").map(|p| CheckpointSpec {
            path: p.into(),
            every,
            flow: kind.name().to_string(),
            chip_hash,
        }),
        resume,
    };
    let limited = max_steps.is_some() || deadline_ms.is_some();
    Ok((kind, session, limited))
}

/// What `--order NAME` asked for: one named strategy, or a portfolio
/// of `k` strategies.
enum OrderChoice {
    Strategy(NetOrdering),
    Portfolio(usize),
}

/// Parses `--order`: an `ocr-order-v1` strategy name or
/// `portfolio[:K]`.
fn parse_order(name: &str) -> Result<OrderChoice, String> {
    if let Some(rest) = name.strip_prefix("portfolio") {
        let k = match rest {
            "" => 4,
            _ => rest
                .strip_prefix(':')
                .and_then(|s| s.parse().ok())
                .filter(|&k| k >= 1)
                .ok_or(format!(
                    "route: bad --order: `{name}` takes portfolio[:K] with K >= 1"
                ))?,
        };
        return Ok(OrderChoice::Portfolio(k));
    }
    ordering_from_name(name)
        .map(OrderChoice::Strategy)
        .ok_or_else(|| {
            format!(
                "route: unknown ordering `{name}` (try longest, shortest, congestion, \
                 criticality, shuffle[:SEED] or portfolio[:K])"
            )
        })
}

fn route(args: &[String]) -> Result<(), String> {
    let flags = ROUTE_SPEC.parse(&args[1..])?;
    let telemetry = TelemetryOut::from_flags(&flags);
    if flags.has("--suite") {
        for f in [
            "--order",
            "--max-steps",
            "--deadline-ms",
            "--checkpoint-out",
            "--checkpoint-every",
            "--resume",
            "--weights",
        ] {
            if flags.value(f).is_some() {
                return Err(format!(
                    "route: {f} applies to a single-chip route, not --suite"
                ));
            }
        }
        return route_suite(&flags, &telemetry);
    }
    let order = flags.value("--order").map(parse_order).transpose()?;
    if let Some(OrderChoice::Portfolio(_)) = order {
        // The portfolio runs K strategies, keeps the minimum, and gives
        // each run its own step-counting RunControl; an outer budget or
        // a checkpointed resume has no single run to apply to.
        for f in [
            "--max-steps",
            "--deadline-ms",
            "--checkpoint-out",
            "--checkpoint-every",
            "--resume",
        ] {
            if flags.value(f).is_some() {
                return Err(format!(
                    "route: {f} cannot be combined with --order portfolio \
                     (the racer runs its own controls)"
                ));
            }
        }
    }
    let path = *flags
        .positionals
        .first()
        .ok_or("route: missing chip file")?;
    let (layout, placement) = load_chip(std::path::Path::new(path))?;
    let (kind, session, limited) = parse_run_session(&flags, &layout, &placement)?;
    if order.is_some() && kind != FlowKind::OverCell {
        return Err(format!(
            "route: --order applies to the overcell flow, not `{}`",
            kind.name()
        ));
    }
    let weights = flags
        .value("--weights")
        .map(|spec| CostWeights::parse(spec).map_err(|e| format!("route: bad --weights: {e}")))
        .transpose()?;
    if weights.is_some() && kind != FlowKind::OverCell {
        return Err(format!(
            "route: --weights applies to the overcell flow, not `{}`",
            kind.name()
        ));
    }
    let options = FlowOptions::new()
        .telemetry(telemetry.wanted())
        // A checkpointed salvage run resumes as a salvage run even if
        // --salvage is not repeated on the resume command line.
        .salvage(flags.has("--salvage") || session.resume.as_ref().is_some_and(|r| r.salvage));
    let mut flow = kind.build_with(options);
    if let Some(w) = weights {
        flow.level_b.weights = w;
    }
    let (result, portfolio) = match order {
        Some(OrderChoice::Portfolio(k)) => {
            // The portfolio clones `level_b` per strategy, so CLI
            // weights apply to every ordering it runs.
            let (result, report) = flow
                .run_portfolio(&layout, &placement, k)
                .map_err(|e| e.to_string())?;
            (result, Some(report))
        }
        strategy => {
            if let Some(OrderChoice::Strategy(ordering)) = strategy {
                flow.level_b.ordering = ordering;
            }
            let result = flow
                .run_controlled(&layout, &placement, &session)
                .map_err(|e| e.to_string())?;
            (result, None)
        }
    };
    let tripped = session.control.tripped();
    let report = result.oracle_report().into_owned();
    println!("flow: {kind}");
    if let Some(report) = &portfolio {
        println!(
            "portfolio: ran {} ordering strategies (ocr-order-v1)",
            report.outcomes.len()
        );
        for (j, o) in report.outcomes.iter().enumerate() {
            let marker = if j == report.winner {
                "  << winner"
            } else {
                ""
            };
            println!(
                "  [{j}] {:<14} unrouted {}, steps {}{marker}",
                o.name, o.unrouted, o.steps
            );
        }
        println!(
            "portfolio: winner {} (strategy {}, unrouted {}, steps {})",
            report.winner_name(),
            report.winner,
            report.winner_unrouted,
            report.winner_steps
        );
    }
    println!("die:  {}", result.layout.die);
    println!("metrics: {}", result.metrics);
    println!(
        "terminal via cuts (not counted above): {}",
        result.metrics.terminal_via_cuts
    );
    if let Some(stats) = &result.stats {
        println!("level B: {stats}");
    }
    if let Some(d) = &result.degradation {
        println!("degradation: {d}");
    }
    match report.violations.first() {
        None => println!("validation: clean"),
        Some(first) => println!(
            "validation: {} violation(s) (first: {first})",
            report.violations.len()
        ),
    }
    if let Some(reason) = tripped {
        println!(
            "run control: tripped ({reason}) after {} steps; unfinished nets are \
             degraded, committed wiring is verified",
            session.control.steps()
        );
    } else if limited {
        println!(
            "run control: completed within limits ({} steps)",
            session.control.steps()
        );
    }
    if let Some(svg_path) = flags.value("--svg") {
        let svg = render_svg(&result.layout, &result.design);
        atomic_write(std::path::Path::new(svg_path), &svg)
            .map_err(|e| format!("{svg_path}: {e}"))?;
        eprintln!("wrote {svg_path}");
    }
    if let Some(routes_path) = flags.value("--routes") {
        let text = write_routes(&result.layout, &result.design);
        atomic_write(std::path::Path::new(routes_path), &text)
            .map_err(|e| format!("{routes_path}: {e}"))?;
        eprintln!("wrote {routes_path}");
    }
    if telemetry.wanted() {
        let chip = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_string();
        let snapshot = result
            .telemetry
            .expect("flow ran with options.telemetry set, snapshot attached");
        if telemetry.table {
            println!("{}", snapshot.render_table());
        }
        telemetry.write(&[(chip, kind, snapshot)])?;
    }
    if !report.is_clean() {
        return Err("routed design failed validation".into());
    }
    Ok(())
}

fn route_suite(flags: &Flags, telemetry: &TelemetryOut) -> Result<(), String> {
    if !flags.positionals.is_empty() || flags.value("--flow").is_some() {
        return Err("route: --suite routes every flow on every suite chip; \
                    it takes no chip file or --flow"
            .into());
    }
    let options = FlowOptions::new()
        .telemetry(telemetry.wanted())
        .salvage(flags.has("--salvage"));
    let mut failures = 0usize;
    let mut runs: Vec<(String, FlowKind, ocr_obs::Telemetry)> = Vec::new();
    for (chip, kind, res) in suite_fanout(options) {
        match res {
            Ok(result) => {
                let report = result.oracle_report();
                let status = if report.is_clean() {
                    "clean".to_string()
                } else {
                    failures += 1;
                    format!("{} violation(s)", report.violations.len())
                };
                println!("{chip:>8} {kind:>9}: {}  [{status}]", result.metrics);
                if let Some(snapshot) = result.telemetry {
                    if telemetry.table {
                        println!("{}", snapshot.render_table());
                    }
                    runs.push((chip, kind, snapshot));
                }
            }
            Err(e) => {
                failures += 1;
                println!("{chip:>8} {kind:>9}: FAILED: {e}");
            }
        }
    }
    telemetry.write(&runs)?;
    if failures > 0 {
        return Err(format!("{failures} suite combination(s) failed"));
    }
    Ok(())
}

fn verify(args: &[String]) -> Result<(), String> {
    let flags = VERIFY_SPEC.parse(&args[1..])?;
    let strict = flags.has("--strict");
    if flags.has("--suite") {
        return verify_suite(&flags, strict);
    }
    let path = *flags
        .positionals
        .first()
        .ok_or("verify: missing chip file")?;
    let (layout, placement) = load_chip(std::path::Path::new(path))?;
    let report = match flags.value("--routes") {
        Some(routes_path) => {
            // Audit existing geometry against the chip file's layout and
            // die exactly as given — the routes must use the same
            // coordinates as the chip file.
            let text =
                std::fs::read_to_string(routes_path).map_err(|e| format!("{routes_path}: {e}"))?;
            let design = parse_routes(&layout, &text).map_err(|e| format!("{routes_path}: {e}"))?;
            let opts = if strict {
                VerifyOptions::strict()
            } else {
                VerifyOptions::default()
            };
            verify_with(&layout, &design, &opts)
        }
        None => {
            let kind = parse_flow(&flags)?;
            let options = FlowOptions::new().verify(true).strict(strict);
            let result = run_flow(kind, options, &layout, &placement)?;
            println!("flow: {kind}");
            result
                .verify
                .expect("flow ran with options.verify set, report attached")
        }
    };
    println!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "verification found {} violation(s)",
            report.violations.len()
        ))
    }
}

fn verify_suite(flags: &Flags, strict: bool) -> Result<(), String> {
    if !flags.positionals.is_empty()
        || flags.value("--flow").is_some()
        || flags.value("--routes").is_some()
    {
        return Err("verify: --suite verifies every flow on every suite chip; \
                    it takes no chip file, --flow or --routes"
            .into());
    }
    let options = FlowOptions::new().verify(true).strict(strict);
    let mut unclean = 0usize;
    for (chip, kind, res) in suite_fanout(options) {
        match res {
            Ok(result) => {
                let report = result
                    .verify
                    .expect("flow ran with options.verify set, report attached");
                if report.is_clean() {
                    println!(
                        "{chip:>8} {kind:>9}: clean ({} nets verified)",
                        report.nets.len()
                    );
                } else {
                    unclean += 1;
                    println!(
                        "{chip:>8} {kind:>9}: {} violation(s)",
                        report.violations.len()
                    );
                }
            }
            Err(e) => {
                unclean += 1;
                println!("{chip:>8} {kind:>9}: FAILED: {e}");
            }
        }
    }
    if unclean > 0 {
        return Err(format!("{unclean} suite combination(s) unclean"));
    }
    Ok(())
}

/// What one chaos trial observed (returned through the isolated pool,
/// so a panicking trial produces a `Poisoned` outcome instead).
struct TrialReport {
    chip: String,
    salvaged: usize,
    degraded: usize,
    poisoned_nets: usize,
    oracle_clean: bool,
}

/// One chaos trial: corrupt a serialization and feed it to the parser
/// (must never panic), perturb a suite chip with sealed cells and
/// terminals, then route it under salvage with the armed fault plan and
/// check the salvaged result against the oracle.
fn chaos_trial(seed: u64, t: usize, chips: &[GeneratedChip]) -> Result<TrialReport, String> {
    // The plan's `chaos.trial` rule carries two guaranteed fires, so
    // this trial panics on both its attempts and is deterministically
    // reported as a poisoned task at any worker count.
    if t == 0 {
        fault::point("chaos.trial");
    }
    let trial_seed = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let base = &chips[t % chips.len()];
    // Malformed-input probe: a corrupted chip file must parse to Ok or
    // Err, never panic (a panic here poisons the trial — a finding).
    let corrupted = fault::corrupt_text(&write_chip(&base.layout, &base.placement), trial_seed, 24);
    let _ = parse_chip(&corrupted);
    // Perturb the routing problem: sealed over-cell cells and terminals
    // force detours, rip-up storms and doomed nets.
    let mut layout = base.layout.clone();
    fault::seal_random_cells(&mut layout, trial_seed, 2);
    fault::seal_random_terminals(&mut layout, trial_seed.wrapping_add(1), 2);
    let options = FlowOptions::new().salvage(true).verify(true);
    let result = run_flow(FlowKind::OverCell, options, &layout, &base.placement)?;
    let report = result
        .verify
        .expect("flow ran with options.verify set, report attached");
    let d = result
        .degradation
        .expect("flow ran with options.salvage set, report attached");
    Ok(TrialReport {
        chip: base.spec.name.clone(),
        salvaged: d.salvaged_routes,
        degraded: d.nets.len(),
        poisoned_nets: d.poisoned(),
        oracle_clean: report.is_clean(),
    })
}

fn chaos(args: &[String]) -> Result<(), String> {
    let flags = CHAOS_SPEC.parse(&args[1..])?;
    if !flags.positionals.is_empty() {
        return Err("chaos: takes no chip file (trials run over the suite)".into());
    }
    let seed: u64 = flags.parsed_or("--seed", 1)?;
    let trials: usize = flags.parsed_or("--trials", 8)?;
    if trials == 0 {
        return Err("chaos: --trials must be at least 1".into());
    }
    let chips = suite::all();
    let plan = fault::chaos_plan(seed);
    let idx: Vec<usize> = (0..trials).collect();
    let collector = ocr_obs::Collector::new();
    // Injected panics are expected here and reported per trial; keep
    // the default hook from spraying backtraces over the summary.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = ocr_obs::with_collector(&collector, || {
        fault::with_plan(&plan, || {
            ocr_exec::parallel_map_isolated(&idx, |&t| chaos_trial(seed, t, &chips))
        })
    });
    std::panic::set_hook(hook);
    let mut poisoned_tasks = 0usize;
    let mut failures = 0usize;
    for (t, outcome) in outcomes.iter().enumerate() {
        match outcome {
            ocr_exec::TaskOutcome::Poisoned { message } => {
                poisoned_tasks += 1;
                println!("trial {t:>2}: poisoned (isolated): {message}");
            }
            ocr_exec::TaskOutcome::Done {
                value: Ok(r),
                retried,
            } => {
                let status = if r.oracle_clean {
                    "oracle clean"
                } else {
                    failures += 1;
                    "ORACLE UNCLEAN"
                };
                let retry = if *retried { ", retried" } else { "" };
                println!(
                    "trial {t:>2} [{:>8}]: salvaged {} routes, degraded {} nets \
                     ({} poisoned{retry})  [{status}]",
                    r.chip, r.salvaged, r.degraded, r.poisoned_nets
                );
            }
            ocr_exec::TaskOutcome::Done {
                value: Err(e),
                retried: _,
            } => {
                failures += 1;
                println!("trial {t:>2}: FAILED: {e}");
            }
        }
    }
    let snapshot = collector.snapshot();
    println!(
        "chaos: {trials} trial(s), {poisoned_tasks} poisoned task(s), \
         {} fault(s) injected, tasks.poisoned={}, nets.salvaged={}",
        snapshot.counter("fault.injected").unwrap_or(0),
        snapshot.counter("tasks.poisoned").unwrap_or(0),
        snapshot.counter("nets.salvaged").unwrap_or(0),
    );
    if failures > 0 {
        return Err(format!("{failures} chaos trial(s) unclean"));
    }
    Ok(())
}

/// `ocr serve`: batch routing service over a spool directory and/or an
/// `ocr-jobs-v1` manifest (see USAGE for the scheduling model).
fn serve_cmd(args: &[String]) -> Result<(), String> {
    use overcell_router::serve::{
        manifest_jobs, run_jobs, serve, JobStatus, NetConfig, NetIntake, PairedIntake, QuotaConfig,
        ServeConfig, ServeError, SpoolIntake, NET_COUNTERS,
    };
    let flags = SERVE_SPEC.parse(&args[1..])?;
    if let Some(stray) = flags.positionals.first() {
        return Err(format!("serve: unexpected argument `{stray}`"));
    }
    let spool = flags.value("--spool");
    let manifest = flags.value("--manifest");
    let listen = flags.value("--listen");
    if spool.is_none() && manifest.is_none() && listen.is_none() {
        return Err("serve: nothing to serve (pass --spool, --manifest, and/or --listen)".into());
    }
    let max_total_steps: Option<u64> = flags.parsed("--max-total-steps")?;
    let max_concurrent: usize = flags.parsed_or("--max-concurrent", 2)?;
    let quantum: u64 = flags.parsed_or("--quantum", 256)?;
    let poll_ms: u64 = flags.parsed_or("--poll-ms", 200)?;
    if flags.has("--drain") && spool.is_none() {
        return Err("serve: --drain requires --spool (a manifest is one-shot already)".into());
    }
    let net_config = match listen {
        Some(addr) => {
            let quota = match (
                flags.parsed::<u64>("--tenant-rate")?,
                flags.parsed::<u64>("--tenant-burst")?,
            ) {
                (None, None) => None,
                (rate, burst) => Some(QuotaConfig {
                    rate_per_sec: rate.unwrap_or(0),
                    burst: burst.unwrap_or(1),
                }),
            };
            // Staged chips must survive a kill-restart when journaling:
            // default the stage under --out so recovery can reload them.
            let stage = flags
                .value("--stage")
                .map(std::path::PathBuf::from)
                .or_else(|| {
                    flags
                        .value("--out")
                        .map(|out| std::path::Path::new(out).join("net-stage"))
                });
            Some(NetConfig {
                addr: addr.to_string(),
                max_conns: flags.parsed_or("--max-conns", 8)?,
                io_timeout_ms: flags.parsed_or("--net-timeout-ms", 5000)?,
                idle_timeout_ms: flags.parsed_or("--net-idle-ms", 10_000)?,
                max_frame: flags.parsed_or("--max-frame-bytes", 1 << 20)?,
                max_pending: flags.parsed_or("--max-pending", 64)?,
                poll_ms,
                stage,
                quota,
            })
        }
        None => None,
    };
    let config = ServeConfig {
        out: flags.value("--out").map(std::path::PathBuf::from),
        max_total_steps,
        max_concurrent,
        quantum,
        journal: flags.value("--journal").map(std::path::PathBuf::from),
    };
    let initial = match manifest {
        Some(path) => {
            manifest_jobs(std::path::Path::new(path)).map_err(|e| format!("serve: {e}"))?
        }
        None => Vec::new(),
    };
    // Announces a bound listener: printed for humans, written to
    // --addr-file for scripts that asked for an ephemeral port.
    let announce = |addr: std::net::SocketAddr| -> Result<(), ServeError> {
        println!("serve: listening on {addr}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if let Some(path) = flags.value("--addr-file") {
            let path = std::path::Path::new(path);
            atomic_write(path, &format!("{addr}\n")).map_err(|e| ServeError::Io {
                path: path.to_path_buf(),
                message: e.to_string(),
            })?;
        }
        Ok(())
    };
    // Service-level telemetry (journal/replay/retry counters and the
    // run span) — written as `ocr-stats-v1` next to the results.
    let collector = ocr_obs::Collector::new();
    let served = ocr_obs::with_collector(&collector, || {
        let _span = ocr_obs::span("serve.run");
        // Declare the durability and network counters up front so
        // `serve-stats.json` always carries them — 0 on a clean run,
        // nonzero after a recovery, healed fault, or shed client.
        // `obs-check --service --require NAME` checks presence, not
        // magnitude.
        for name in [
            "journal.append",
            "journal.replayed",
            "recover.jobs_resumed",
            "io.retries",
        ] {
            ocr_obs::count(name, 0);
        }
        for name in NET_COUNTERS {
            ocr_obs::count(name, 0);
        }
        match (spool, net_config) {
            (Some(dir), Some(net)) => {
                let spool_intake =
                    SpoolIntake::new(std::path::Path::new(dir), poll_ms, flags.has("--drain"));
                let net_intake = match NetIntake::bind(net).and_then(|n| {
                    announce(n.local_addr())?;
                    Ok(n)
                }) {
                    Ok(intake) => intake,
                    Err(e) => return Err(e),
                };
                let mut intake = PairedIntake::new(spool_intake, net_intake);
                let report = serve(initial, &mut intake, &config);
                report.map(|r| (r, intake.take_error()))
            }
            (Some(dir), None) => {
                let mut intake =
                    SpoolIntake::new(std::path::Path::new(dir), poll_ms, flags.has("--drain"));
                let report = serve(initial, &mut intake, &config);
                report.map(|r| (r, intake.take_error()))
            }
            (None, Some(net)) => {
                let mut intake = NetIntake::bind(net).and_then(|n| {
                    announce(n.local_addr())?;
                    Ok(n)
                })?;
                let report = serve(initial, &mut intake, &config);
                report.map(|r| (r, None))
            }
            (None, None) => run_jobs(initial, &config).map(|r| (r, None)),
        }
    });
    let (report, intake_error) = served.map_err(|e| format!("serve: {e}"))?;
    if let Some(out) = flags.value("--out") {
        let snapshot = collector.snapshot();
        let text = ocr_obs::stats_json(&[("serve", "service", &snapshot)]);
        let path = std::path::Path::new(out).join("serve-stats.json");
        overcell_router::io::atomic_write(&path, &text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The engine drained and answered every job even if the spool went
    // away mid-run: print the admission log and per-job outcomes before
    // surfacing the intake error.
    for line in &report.log {
        println!("{line}");
    }
    let failed = report
        .jobs
        .iter()
        .filter(|j| j.status == JobStatus::Failed)
        .count();
    if let Some(e) = intake_error {
        return Err(format!("serve: {e}"));
    }
    if failed > 0 {
        return Err(format!("serve: {failed} job(s) failed"));
    }
    Ok(())
}

/// `ocr submit`: a small `ocr-wire-v1` client for a running
/// `ocr serve --listen` daemon — submits one chip (sent inline, no
/// shared filesystem needed), pings, or asks the service to drain.
/// `--tear-bytes` deliberately tears the frame mid-write and
/// disconnects, for robustness smoke tests.
fn submit_cmd(args: &[String]) -> Result<(), String> {
    use overcell_router::io::job::JobSpec;
    use overcell_router::io::wire::{self, Response};
    use overcell_router::serve::{client_connect, client_request};
    let flags = SUBMIT_SPEC.parse(&args[1..])?;
    if let Some(stray) = flags.positionals.first() {
        return Err(format!("submit: unexpected argument `{stray}`"));
    }
    let addr = flags.value("--addr").ok_or("submit: missing --addr")?;
    let timeout = std::time::Duration::from_millis(flags.parsed_or("--timeout-ms", 10_000)?);
    let stream = client_connect(addr, timeout).map_err(|e| format!("submit: {addr}: {e}"))?;
    if flags.has("--ping") {
        return match client_request(&stream, "ping") {
            Ok(Response::Pong) => {
                println!("pong");
                Ok(())
            }
            Ok(other) => Err(format!("submit: {}", wire::response_payload(&other))),
            Err(e) => Err(format!("submit: {e}")),
        };
    }
    if flags.has("--shutdown") {
        return match client_request(&stream, "shutdown") {
            Ok(Response::Closing) => {
                println!("closing");
                Ok(())
            }
            Ok(other) => Err(format!("submit: {}", wire::response_payload(&other))),
            Err(e) => Err(format!("submit: {e}")),
        };
    }
    let chip_path = flags
        .value("--chip")
        .ok_or("submit: missing --chip (or --ping/--shutdown)")?;
    let chip_text =
        std::fs::read_to_string(chip_path).map_err(|e| format!("submit: {chip_path}: {e}"))?;
    let name = match flags.value("--name") {
        Some(name) => name.to_string(),
        None => std::path::Path::new(chip_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
            .ok_or("submit: cannot derive a job name from --chip; pass --name")?,
    };
    let mut spec = JobSpec::new(name, "-");
    if let Some(flow) = flags.value("--flow") {
        spec.flow = flow.to_string();
    }
    spec.order = flags.value("--order").map(str::to_string);
    spec.priority = flags.parsed_or("--priority", 0)?;
    spec.max_steps = flags.parsed("--max-steps")?;
    spec.salvage = flags.has("--salvage");
    spec.verify = flags.has("--verify");
    spec.tenant = flags.value("--tenant").map(str::to_string);
    let payload = wire::submit_payload(&spec, &chip_text);
    if let Some(n) = flags.parsed::<usize>("--tear-bytes")? {
        // Mid-frame disconnect on purpose: write a strict prefix of
        // the frame and hang up. The daemon must answer its other
        // clients untroubled.
        let bytes = wire::frame(&payload);
        let n = n.min(bytes.len().saturating_sub(1)).max(1);
        use std::io::Write as _;
        (&stream)
            .write_all(&bytes[..n])
            .map_err(|e| format!("submit: {e}"))?;
        let _ = stream.shutdown(std::net::Shutdown::Both);
        println!("submit: tore the frame after {n} byte(s)");
        return Ok(());
    }
    match client_request(&stream, &payload).map_err(|e| format!("submit: {e}"))? {
        Response::Accepted(name) => {
            println!("accepted {name}");
            Ok(())
        }
        other => Err(format!("submit: {}", wire::response_payload(&other))),
    }
}

fn stats(args: &[String]) -> Result<(), String> {
    let flags = STATS_SPEC.parse(&args[1..])?;
    let path = *flags
        .positionals
        .first()
        .ok_or("stats: missing chip file")?;
    let (layout, placement) = load_chip(std::path::Path::new(path))?;
    let level_a: Vec<_> = layout
        .net_ids()
        .filter(|&n| {
            layout.net(n).class.is_level_a_default() || layout.net(n).class == NetClass::Power
        })
        .collect();
    let m = ChipMetrics::of(path, &layout, &level_a);
    println!("{m}");
    println!("placement: {placement}");
    println!("die: {} (area {})", layout.die, layout.die.area());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{
        fnv1a_64, parse_order, run, OrderChoice, CHAOS_SPEC, GENERATE_SPEC, ROUTE_SPEC, SERVE_SPEC,
        SUBMIT_SPEC, VERIFY_SPEC,
    };

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let args = argv(&["chip.ocr", "--bogus"]);
        let err = ROUTE_SPEC.parse(&args).unwrap_err();
        assert_eq!(err, "route: unknown flag `--bogus`");
    }

    #[test]
    fn value_flags_require_a_value() {
        for args in [argv(&["chip.ocr", "--flow"]), argv(&["--flow", "--svg"])] {
            let err = ROUTE_SPEC.parse(&args).unwrap_err();
            assert_eq!(err, "route: flag `--flow` requires a value");
        }
    }

    #[test]
    fn flags_values_switches_and_positionals_parse() {
        let args = argv(&["chip.ocr", "--flow", "channel2", "--strict"]);
        let flags = VERIFY_SPEC.parse(&args).expect("parses");
        assert_eq!(flags.positionals, vec!["chip.ocr"]);
        assert_eq!(flags.value("--flow"), Some("channel2"));
        assert!(flags.has("--strict"));
        assert!(!flags.has("--suite"));
    }

    /// `ocr generate stress --scale 8` writes the chip perfbench's
    /// `scale8` workload routes: its text hashes to the `ami33x8` pin
    /// of `tests/determinism.rs`.
    #[test]
    fn generate_stress_scale8_writes_the_pinned_chip() {
        let path = std::env::temp_dir().join(format!("ocr-stress8-{}.ocr", std::process::id()));
        let out = path.to_str().expect("utf-8 temp path");
        run(&argv(&["generate", "stress", "--scale", "8", "-o", out])).expect("generates");
        let text = std::fs::read_to_string(&path).expect("written");
        std::fs::remove_file(&path).expect("removed");
        assert_eq!(fnv1a_64(&text), 0xe86f_9b47_07ce_1c68);
        for scale in ["0", "65"] {
            let err = run(&argv(&["generate", "stress", "--scale", scale])).unwrap_err();
            assert_eq!(err, "generate: bad --scale: must be 1 to 64");
        }
    }

    #[test]
    fn dash_is_a_legal_value() {
        let args = argv(&["-o", "-"]);
        let flags = GENERATE_SPEC.parse(&args).expect("parses");
        assert_eq!(flags.value("-o"), Some("-"));
    }

    /// Golden strings: every subcommand reports a bad numeric value with
    /// the same normalized `"{command}: bad {flag}: {cause}"` shape the
    /// hand-rolled loops used to produce.
    #[test]
    fn bad_value_errors_keep_their_exact_strings() {
        let cause = "x".parse::<u64>().unwrap_err().to_string();
        let cases: &[(&[&str], &str)] = &[
            (
                &["generate", "ami33", "--seed", "x"],
                "generate: bad --seed:",
            ),
            (&["chaos", "--seed", "x"], "chaos: bad --seed:"),
            (&["chaos", "--trials", "x"], "chaos: bad --trials:"),
            (
                &["serve", "--spool", "nowhere", "--quantum", "x"],
                "serve: bad --quantum:",
            ),
            (
                &["serve", "--spool", "nowhere", "--max-concurrent", "x"],
                "serve: bad --max-concurrent:",
            ),
        ];
        for (args, prefix) in cases {
            let err = run(&argv(args)).unwrap_err();
            assert_eq!(err, format!("{prefix} {cause}"), "args {args:?}");
        }
    }

    #[test]
    fn route_flag_parse_errors_come_from_the_shared_helper() {
        // `route` loads the chip before parsing run-control values, so
        // drive the typed getter directly against the route spec.
        let args = argv(&["chip.ocr", "--max-steps", "x"]);
        let flags = ROUTE_SPEC.parse(&args).expect("parses");
        let cause = "x".parse::<u64>().unwrap_err().to_string();
        let err = flags.parsed::<u64>("--max-steps").unwrap_err();
        assert_eq!(err, format!("route: bad --max-steps: {cause}"));
        let ok = argv(&["chip.ocr", "--max-steps", "12"]);
        let flags = ROUTE_SPEC.parse(&ok).expect("parses");
        assert_eq!(flags.parsed::<u64>("--max-steps"), Ok(Some(12)));
        assert_eq!(flags.parsed_or::<u64>("--deadline-ms", 7), Ok(7));
    }

    #[test]
    fn every_spec_parses_its_own_flags() {
        for spec in [
            GENERATE_SPEC,
            ROUTE_SPEC,
            VERIFY_SPEC,
            CHAOS_SPEC,
            SERVE_SPEC,
            SUBMIT_SPEC,
        ] {
            for name in spec.value_flags {
                let args = argv(&[name, "1"]);
                let flags = spec.parse(&args).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(flags.value(name), Some("1"), "{name}");
            }
            for name in spec.switch_flags {
                let args = argv(&[name]);
                let flags = spec.parse(&args).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(flags.has(name), "{name}");
            }
        }
    }

    #[test]
    fn order_flag_parses_strategies_and_portfolio() {
        assert!(matches!(
            parse_order("portfolio"),
            Ok(OrderChoice::Portfolio(4))
        ));
        assert!(matches!(
            parse_order("portfolio:7"),
            Ok(OrderChoice::Portfolio(7))
        ));
        for name in ["longest", "congestion", "criticality", "shuffle:3"] {
            assert!(matches!(parse_order(name), Ok(OrderChoice::Strategy(_))));
        }
        for bad in ["portfolio:0", "portfolio:x", "portfolio:", "fastest"] {
            assert!(parse_order(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn order_flag_combinations_are_validated() {
        let err = run(&argv(&["route", "--suite", "--order", "portfolio"])).unwrap_err();
        assert_eq!(
            err,
            "route: --order applies to a single-chip route, not --suite"
        );
        let err = run(&argv(&[
            "route",
            "chip.ocr",
            "--order",
            "portfolio",
            "--max-steps",
            "9",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            "route: --max-steps cannot be combined with --order portfolio \
             (the racer runs its own controls)"
        );
    }
}
