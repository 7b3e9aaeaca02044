//! `obs-check` — sanity-checks an `ocr-stats-v1` JSON document (as
//! written by `ocr route --stats-json`) without any external JSON
//! tooling, so CI can validate telemetry output on a hermetic host.
//!
//! ```text
//! obs-check <stats.json> [--min-chips N]
//! obs-check <stats.json> --service [--require COUNTER]...
//! obs-check --same-work <a.json> <b.json>
//! ```
//!
//! Stats-mode checks:
//!
//! * the document parses and declares `"schema": "ocr-stats-v1"`;
//! * `runs` is a non-empty array, every run labeled with chip + flow;
//! * every run has at least one span with nonzero total time;
//! * every `overcell` run reports nonzero `flow.partition`,
//!   `flow.level_a` and `flow.level_b` phase timings and declares the
//!   `level_b.rips` and `level_b.retries` counters;
//! * every chip in the document has an `overcell` run;
//! * with `--min-chips N`, at least N distinct chips appear.
//!
//! With `--service` the file is instead validated as service telemetry
//! (as written by `ocr serve` to `serve-stats.json`), where runs are
//! counter documents, not per-chip flow timings:
//!
//! * the document parses and declares `"schema": "ocr-stats-v1"`;
//! * `runs` is a non-empty array, every run labeled with chip + flow;
//! * every counter named by a `--require` flag (repeatable) is declared
//!   in at least one run.
//!
//! With `--same-work` two stats documents of the same input are compared
//! run by run, for instance one written at `OCR_THREADS=1` and one on
//! the default pool: both must list the same runs (chip and flow) in the
//! same order, and each pair must agree on every counter outside the
//! scheduling-dependent `exec.*` family and on every span's `count`.
//! Timings are not compared.
//!
//! Exits 0 when all checks pass, 1 (with a message) otherwise.

use ocr_obs::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("obs-check: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("obs-check: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut min_chips: usize = 0;
    let mut service = false;
    let mut same_work = false;
    let mut require: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--min-chips" => {
                let v = args
                    .get(i + 1)
                    .ok_or("--min-chips requires a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --min-chips: {e}"))?;
                min_chips = v;
                i += 2;
            }
            "--service" => {
                service = true;
                i += 1;
            }
            "--same-work" => {
                same_work = true;
                i += 1;
            }
            "--require" => {
                require.push(args.get(i + 1).ok_or("--require requires a counter name")?);
                i += 2;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => {
                paths.push(positional);
                i += 1;
            }
        }
    }
    if !require.is_empty() && !service {
        return Err("--require only applies to --service".into());
    }
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    if same_work {
        let [a, b] = paths[..] else {
            return Err("--same-work takes exactly two input files".into());
        };
        return check_same_work(&read(a)?, &read(b)?);
    }
    let path = match paths[..] {
        [path] => path,
        [] => {
            return Err(
                "usage: obs-check <stats.json> [--min-chips N] | --service [--require C]... \
                 | --same-work <a.json> <b.json>"
                    .into(),
            )
        }
        _ => return Err("more than one input file".into()),
    };
    let doc = read(path)?;
    if service {
        check_service(&doc, &require)
    } else {
        check(&doc, min_chips)
    }
}

fn span_total(run: &Value, name: &str) -> Option<u64> {
    run.get("spans")?
        .as_array()?
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))?
        .get("total_ns")?
        .as_u64()
}

fn runs(doc: &Value) -> Result<&[Value], String> {
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| "`runs` missing or not an array".into())
}

/// A string field: a document's `schema`, a run's `chip` or `flow`.
fn str_field<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key).and_then(Value::as_str)
}

/// The checks both single-document modes make: the `ocr-stats-v1`
/// schema, a non-empty `runs`, and a chip and flow label on every run.
/// Returns each run with its chip and flow.
fn labeled_runs(doc: &Value) -> Result<Vec<(&str, &str, &Value)>, String> {
    if str_field(doc, "schema") != Some("ocr-stats-v1") {
        return Err("missing or unexpected `schema` (want \"ocr-stats-v1\")".into());
    }
    let runs = runs(doc)?;
    if runs.is_empty() {
        return Err("`runs` is empty".into());
    }
    runs.iter()
        .enumerate()
        .map(|(k, run)| {
            let chip = str_field(run, "chip").ok_or(format!("run {k}: missing `chip`"))?;
            let flow = str_field(run, "flow").ok_or(format!("run {k}: missing `flow`"))?;
            Ok((chip, flow, run))
        })
        .collect()
}

fn has_counter(run: &Value, name: &str) -> bool {
    run.get("counters")
        .and_then(Value::as_array)
        .is_some_and(|cs| {
            cs.iter()
                .any(|c| c.get("name").and_then(Value::as_str) == Some(name))
        })
}

/// Validates service telemetry (`ocr serve`'s `serve-stats.json`):
/// right schema, labeled non-empty runs, and every `--require`d counter
/// declared in at least one run. Service runs carry counters (journal
/// appends, replays, recoveries, I/O retries), not per-chip flow
/// timings, so the per-flow span checks of stats mode do not apply.
fn check_service(doc: &Value, require: &[&str]) -> Result<String, String> {
    let runs = labeled_runs(doc)?;
    for &counter in require {
        if !runs.iter().any(|&(_, _, run)| has_counter(run, counter)) {
            return Err(format!("required counter `{counter}` missing"));
        }
    }
    Ok(format!(
        "service telemetry: {} run(s), {} required counter(s) present",
        runs.len(),
        require.len()
    ))
}

/// The host-independent work of one run, by name: the value of every
/// counter outside `exec.*` and the `count` of every span.
fn work(run: &Value) -> BTreeMap<String, Option<u64>> {
    let entries = |key: &str| run.get(key).and_then(Value::as_array).unwrap_or_default();
    let counters = entries("counters").iter().filter_map(|c| {
        let name = c.get("name")?.as_str()?;
        (!name.starts_with("exec.")).then(|| {
            (
                format!("counter `{name}`"),
                c.get("value").and_then(Value::as_u64),
            )
        })
    });
    let spans = entries("spans").iter().filter_map(|s| {
        let name = s.get("name")?.as_str()?;
        Some((
            format!("span `{name}` count"),
            s.get("count").and_then(Value::as_u64),
        ))
    });
    counters.chain(spans).collect()
}

/// Compares two stats documents run by run: the same runs in the same
/// order, each pair with the same [`work`].
fn check_same_work(a: &Value, b: &Value) -> Result<String, String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    if runs_a.len() != runs_b.len() {
        return Err(format!("{} run(s) against {}", runs_a.len(), runs_b.len()));
    }
    let label = |run: &Value| {
        let field = |key| str_field(run, key).unwrap_or("?");
        format!("{}/{}", field("chip"), field("flow"))
    };
    for (k, (x, y)) in runs_a.iter().zip(runs_b).enumerate() {
        let (lx, ly) = (label(x), label(y));
        if lx != ly {
            return Err(format!("run {k}: {lx} against {ly}"));
        }
        let (wx, wy) = (work(x), work(y));
        for name in wx.keys().chain(wy.keys()) {
            let (vx, vy) = (wx.get(name), wy.get(name));
            if vx != vy {
                let show = |v: Option<&Option<u64>>| match v {
                    Some(Some(v)) => v.to_string(),
                    Some(None) => "no value".into(),
                    None => "absent".into(),
                };
                return Err(format!(
                    "run {k} ({lx}): {name} {} against {}",
                    show(vx),
                    show(vy)
                ));
            }
        }
    }
    Ok(format!(
        "{} run(s) did the same work: counters outside exec.* and span counts agree",
        runs_a.len()
    ))
}

fn check(doc: &Value, min_chips: usize) -> Result<String, String> {
    let runs = labeled_runs(doc)?;
    let mut chips: BTreeSet<String> = BTreeSet::new();
    let mut overcell_chips: BTreeSet<String> = BTreeSet::new();
    for &(chip, flow, run) in &runs {
        chips.insert(chip.to_string());
        let spans = run
            .get("spans")
            .and_then(Value::as_array)
            .ok_or(format!("{chip}/{flow}: missing `spans`"))?;
        let any_time: u64 = spans
            .iter()
            .filter_map(|s| s.get("total_ns").and_then(Value::as_u64))
            .sum();
        if any_time == 0 {
            return Err(format!("{chip}/{flow}: all span timings are zero"));
        }
        if flow == "overcell" {
            overcell_chips.insert(chip.to_string());
            for phase in ["flow.partition", "flow.level_a", "flow.level_b"] {
                match span_total(run, phase) {
                    None => return Err(format!("{chip}/{flow}: missing phase span `{phase}`")),
                    Some(0) => return Err(format!("{chip}/{flow}: zero timing for `{phase}`")),
                    Some(_) => {}
                }
            }
            for counter in ["level_b.rips", "level_b.retries"] {
                if !has_counter(run, counter) {
                    return Err(format!("{chip}/{flow}: missing counter `{counter}`"));
                }
            }
        }
    }
    for chip in &chips {
        if !overcell_chips.contains(chip) {
            return Err(format!("chip `{chip}` has no overcell run"));
        }
    }
    if chips.len() < min_chips {
        return Err(format!(
            "only {} distinct chip(s), expected at least {min_chips}",
            chips.len()
        ));
    }
    Ok(format!(
        "{} run(s) over {} chip(s): schema, phase timings and rip/retry counters OK",
        runs.len(),
        chips.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        json::parse(text).expect("valid test JSON")
    }

    const GOOD: &str = r#"{"schema":"ocr-stats-v1","runs":[
        {"chip":"ami33","flow":"overcell",
         "spans":[{"name":"flow.partition","count":1,"total_ns":10,"min_ns":10,"max_ns":10},
                  {"name":"flow.level_a","count":1,"total_ns":20,"min_ns":20,"max_ns":20},
                  {"name":"flow.level_b","count":1,"total_ns":30,"min_ns":30,"max_ns":30}],
         "counters":[{"name":"level_b.retries","value":0},{"name":"level_b.rips","value":2}]},
        {"chip":"ami33","flow":"channel2",
         "spans":[{"name":"flow.channels","count":1,"total_ns":5,"min_ns":5,"max_ns":5}],
         "counters":[]}
    ]}"#;

    #[test]
    fn clean_document_passes() {
        assert!(check(&doc(GOOD), 1).is_ok());
    }

    #[test]
    fn min_chips_is_enforced() {
        let err = check(&doc(GOOD), 3).unwrap_err();
        assert!(err.contains("distinct chip"), "{err}");
    }

    #[test]
    fn zero_phase_timing_fails() {
        let bad = GOOD.replace("\"total_ns\":20", "\"total_ns\":0");
        let err = check(&doc(&bad), 1).unwrap_err();
        assert!(err.contains("zero timing"), "{err}");
    }

    #[test]
    fn missing_rip_counter_fails() {
        let bad = GOOD.replace("level_b.rips", "level_b.other");
        let err = check(&doc(&bad), 1).unwrap_err();
        assert!(err.contains("level_b.rips"), "{err}");
    }

    #[test]
    fn chip_without_overcell_run_fails() {
        let bad = GOOD.replace(
            "\"chip\":\"ami33\",\"flow\":\"channel2\"",
            "\"chip\":\"lonely\",\"flow\":\"channel2\"",
        );
        let err = check(&doc(&bad), 1).unwrap_err();
        assert!(err.contains("lonely"), "{err}");
    }

    #[test]
    fn wrong_schema_fails() {
        let bad = GOOD.replace("ocr-stats-v1", "ocr-stats-v0");
        assert!(check(&doc(&bad), 1).is_err());
    }

    const GOOD_SERVICE: &str = r#"{"schema":"ocr-stats-v1","runs":[
        {"chip":"serve","flow":"service",
         "spans":[{"name":"serve.run","count":1,"total_ns":10,"min_ns":10,"max_ns":10}],
         "counters":[{"name":"journal.append","value":9},
                     {"name":"journal.replayed","value":0},
                     {"name":"recover.jobs_resumed","value":0},
                     {"name":"io.retries","value":0}]}
    ]}"#;

    #[test]
    fn clean_service_document_passes() {
        let ok = check_service(
            &doc(GOOD_SERVICE),
            &["journal.append", "journal.replayed", "io.retries"],
        )
        .unwrap();
        assert!(ok.contains("3 required counter(s)"), "{ok}");
    }

    #[test]
    fn missing_required_counter_fails() {
        let err = check_service(&doc(GOOD_SERVICE), &["recover.nope"]).unwrap_err();
        assert!(err.contains("recover.nope"), "{err}");
    }

    #[test]
    fn service_mode_skips_flow_phase_checks() {
        // The same document fails stats mode (no overcell run, no phase
        // spans) but is valid service telemetry.
        assert!(check(&doc(GOOD_SERVICE), 0).is_err());
        assert!(check_service(&doc(GOOD_SERVICE), &[]).is_ok());
    }

    #[test]
    fn same_work_ignores_timings_and_exec_counters() {
        let other = GOOD.replace("\"total_ns\":30", "\"total_ns\":31").replace(
            r#"{"name":"level_b.retries","value":0}"#,
            r#"{"name":"exec.tasks","value":7},{"name":"level_b.retries","value":0}"#,
        );
        let ok = check_same_work(&doc(GOOD), &doc(&other)).unwrap();
        assert!(ok.contains("2 run(s)"), "{ok}");
    }

    #[test]
    fn same_work_fails_on_a_changed_counter_span_count_or_run() {
        let counter = GOOD.replace(r#""value":2"#, r#""value":3"#);
        let err = check_same_work(&doc(GOOD), &doc(&counter)).unwrap_err();
        assert!(err.contains("counter `level_b.rips` 2 against 3"), "{err}");
        let span = GOOD.replace(r#""count":1,"total_ns":20"#, r#""count":2,"total_ns":20"#);
        let err = check_same_work(&doc(GOOD), &doc(&span)).unwrap_err();
        assert!(
            err.contains("span `flow.level_a` count 1 against 2"),
            "{err}"
        );
        let missing = GOOD.replace(r#"{"name":"level_b.retries","value":0},"#, "");
        let err = check_same_work(&doc(GOOD), &doc(&missing)).unwrap_err();
        assert!(err.contains("`level_b.retries` 0 against absent"), "{err}");
        let relabeled = GOOD.replace("channel2", "channel4");
        let err = check_same_work(&doc(GOOD), &doc(&relabeled)).unwrap_err();
        assert!(
            err.contains("run 1: ami33/channel2 against ami33/channel4"),
            "{err}"
        );
    }

    #[test]
    fn service_mode_requires_labeled_runs() {
        let bad = GOOD_SERVICE.replace(r#""chip":"serve","#, "");
        let err = check_service(&doc(&bad), &[]).unwrap_err();
        assert!(err.contains("missing `chip`"), "{err}");
        let empty = r#"{"schema":"ocr-stats-v1","runs":[]}"#;
        assert!(check_service(&doc(empty), &[]).is_err());
    }
}
