//! `obs-check` — sanity-checks an `ocr-stats-v1` JSON document (as
//! written by `ocr route --stats-json`) without any external JSON
//! tooling, so CI can validate telemetry output on a hermetic host.
//!
//! ```text
//! obs-check <stats.json> [--min-chips N]
//! obs-check <stats.json> --service [--require COUNTER]...
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
//! Exits 0 when all checks pass, 1 (with a message) otherwise.

use ocr_obs::json::{self, Value};
use std::collections::BTreeSet;
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
    let mut path: Option<&str> = None;
    let mut min_chips: usize = 0;
    let mut service = false;
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
            "--require" => {
                require.push(args.get(i + 1).ok_or("--require requires a counter name")?);
                i += 2;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if path.replace(positional).is_some() {
                    return Err("more than one input file".into());
                }
                i += 1;
            }
        }
    }
    if !require.is_empty() && !service {
        return Err("--require only applies to --service".into());
    }
    let path =
        path.ok_or("usage: obs-check <stats.json> [--min-chips N] | --service [--require C]...")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
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
    if doc.get("schema").and_then(Value::as_str) != Some("ocr-stats-v1") {
        return Err("missing or unexpected `schema` (want \"ocr-stats-v1\")".into());
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("`runs` missing or not an array")?;
    if runs.is_empty() {
        return Err("`runs` is empty".into());
    }
    for (k, run) in runs.iter().enumerate() {
        run.get("chip")
            .and_then(Value::as_str)
            .ok_or(format!("run {k}: missing `chip`"))?;
        run.get("flow")
            .and_then(Value::as_str)
            .ok_or(format!("run {k}: missing `flow`"))?;
    }
    for &counter in require {
        if !runs.iter().any(|run| has_counter(run, counter)) {
            return Err(format!("required counter `{counter}` missing"));
        }
    }
    Ok(format!(
        "service telemetry: {} run(s), {} required counter(s) present",
        runs.len(),
        require.len()
    ))
}

fn check(doc: &Value, min_chips: usize) -> Result<String, String> {
    if doc.get("schema").and_then(Value::as_str) != Some("ocr-stats-v1") {
        return Err("missing or unexpected `schema` (want \"ocr-stats-v1\")".into());
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("`runs` missing or not an array")?;
    if runs.is_empty() {
        return Err("`runs` is empty".into());
    }
    let mut chips: BTreeSet<String> = BTreeSet::new();
    let mut overcell_chips: BTreeSet<String> = BTreeSet::new();
    for (k, run) in runs.iter().enumerate() {
        let chip = run
            .get("chip")
            .and_then(Value::as_str)
            .ok_or(format!("run {k}: missing `chip`"))?;
        let flow = run
            .get("flow")
            .and_then(Value::as_str)
            .ok_or(format!("run {k}: missing `flow`"))?;
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
    fn service_mode_requires_labeled_runs() {
        let bad = GOOD_SERVICE.replace(r#""chip":"serve","#, "");
        let err = check_service(&doc(&bad), &[]).unwrap_err();
        assert!(err.contains("missing `chip`"), "{err}");
        let empty = r#"{"schema":"ocr-stats-v1","runs":[]}"#;
        assert!(check_service(&doc(empty), &[]).is_err());
    }
}
