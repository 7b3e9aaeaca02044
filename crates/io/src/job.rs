//! `ocr-jobs-v1` / `ocr-results-v1` — the batch-service text formats.
//!
//! A *job manifest* is newline-delimited job specs for `ocr serve`: one
//! `job` directive per line naming a `.ocr` chip, a flow, and the
//! per-job scheduling options. The same grammar is used verbatim for
//! `.job` files dropped into a spool directory:
//!
//! ```text
//! ocr-jobs-v1
//! # name      chip            options…
//! job alpha   chips/a.ocr     flow overcell priority 2 max-steps 500
//! job beta    chips/b.ocr     salvage verify
//! ```
//!
//! A *result manifest* is the service's answer sheet — one record per
//! job with its typed terminal status and the deterministic accounting
//! that produced it:
//!
//! ```text
//! ocr-results-v1
//! job alpha done steps 431 routed 18 degraded 0 preempts 2
//! job beta failed steps 0 routed 0 degraded 0 preempts 0 detail chip missing
//! ```
//!
//! This module owns the job grammar: [`write_job_options`] /
//! [`parse_job_options`] for the option tail, [`write_record_fields`] /
//! [`parse_record_fields`] for a record's fields. The manifests, the
//! wire's `submit` line ([`crate::wire`]) and the service journal's
//! `accept`/`end` events all call them; each carrier adds only its
//! prefix and its own handling of names, chip paths and detail text.
//! Option values are always written by [`one_token`].
//!
//! Both parsers take untrusted text, so — like every other `ocr-io`
//! format — they return a line-numbered [`ParseError`] on any malformed
//! input and never panic.

use crate::reader::{self, Cursor};
use crate::wire::{after_tokens, one_line};
use crate::ParseError;
use std::fmt::Write as _;

/// Magic first line of a job manifest / spool file.
pub const JOBS_MAGIC: &str = "ocr-jobs-v1";
/// Magic first line of a result manifest.
pub const RESULTS_MAGIC: &str = "ocr-results-v1";

/// The typed terminal statuses a batch job can end in, as spelled in
/// `ocr-results-v1` documents.
pub const STATUS_TOKENS: [&str; 5] = ["done", "salvaged", "preempted", "rejected", "failed"];

/// One routing job as submitted to the batch service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique job name; doubles as the per-job results directory, so it
    /// is restricted to `[A-Za-z0-9._-]` and may not start with a dot.
    pub name: String,
    /// Path of the `.ocr` chip to route (resolved by the service
    /// relative to the file this spec came from).
    pub chip: String,
    /// Flow name (`overcell` / `channel2` / `channel3` / `channel4`).
    pub flow: String,
    /// Optional `ocr-order-v1` net-ordering strategy name for the
    /// overcell flow (`longest` / `shortest` / `congestion` /
    /// `criticality` / `shuffle[:SEED]`). `None` leaves the flow's
    /// default ordering in place. Validated by the service, not the
    /// parser — the format stays open to future strategy names.
    pub order: Option<String>,
    /// Scheduling priority: higher runs first. Defaults to 0.
    pub priority: i64,
    /// Optional per-job deterministic step budget.
    pub max_steps: Option<u64>,
    /// Degrade gracefully instead of aborting (see `FlowOptions`).
    pub salvage: bool,
    /// Run the independent oracle on the result.
    pub verify: bool,
    /// Billing/quota identity for submissions arriving over the
    /// network front-end (same `[A-Za-z0-9._-]{1,64}` shape as a job
    /// name). `None` means the anonymous tenant. Quotas are enforced
    /// at admission, not by the scheduler, so the field is carried but
    /// ignored by file-based intake.
    pub tenant: Option<String>,
}

impl JobSpec {
    /// A job with default options (overcell flow, priority 0, no
    /// budget, no salvage, no verification).
    pub fn new(name: impl Into<String>, chip: impl Into<String>) -> JobSpec {
        JobSpec {
            name: name.into(),
            chip: chip.into(),
            flow: "overcell".to_string(),
            order: None,
            priority: 0,
            max_steps: None,
            salvage: false,
            verify: false,
            tenant: None,
        }
    }
}

/// One terminal record of a result manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// The job's name.
    pub name: String,
    /// Terminal status: one of [`STATUS_TOKENS`].
    pub status: String,
    /// Deterministic steps the job charged across all its slices.
    pub steps: u64,
    /// Nets routed in the final design (0 for jobs that never ran).
    pub routed: u64,
    /// Nets degraded in the final design.
    pub degraded: u64,
    /// How many times the scheduler preempted the job to a checkpoint.
    pub preempts: u64,
    /// Free-text detail (failure reason, rejection cause); empty when
    /// there is nothing to add.
    pub detail: String,
}

/// Keeps free text on one token-safe line: control characters and the
/// comment introducer collapse to spaces so a record always re-parses.
fn sanitize(text: &str) -> String {
    one_line(text).replace('#', " ")
}

/// `true` for a job name both manifests accept: `[A-Za-z0-9._-]`, at
/// most 64 characters, no leading dot — safe to reuse as a directory
/// name. The batch service consults this before creating per-job
/// result directories for names that arrived outside a manifest.
pub fn valid_job_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// The error text for a name or tenant outside [`valid_job_name`]'s
/// shape.
pub(crate) fn bad_name(what: &str, name: &str) -> String {
    format!("bad {what} `{name}` (want [A-Za-z0-9._-]{{1,64}}, no leading dot)")
}

/// Writes a value as one token: whitespace becomes `_` and an empty
/// value becomes `-`, so a value never shifts the positions of the
/// tokens after it. Every carrier writes option values this way; the
/// service journal writes names and chip paths this way too.
pub fn one_token(value: &str) -> String {
    if value.is_empty() {
        return "-".to_string();
    }
    value
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

/// Renders a spec's option tail — ` flow F`, ` order O`, ` priority P`,
/// ` max-steps N`, ` salvage`, ` verify`, ` tenant T`, in that order,
/// each with its leading space — leaving out options at their default.
pub fn write_job_options(spec: &JobSpec) -> String {
    let mut out = String::new();
    if spec.flow != "overcell" {
        let _ = write!(out, " flow {}", one_token(&spec.flow));
    }
    if let Some(order) = &spec.order {
        let _ = write!(out, " order {}", one_token(order));
    }
    if spec.priority != 0 {
        let _ = write!(out, " priority {}", spec.priority);
    }
    if let Some(steps) = spec.max_steps {
        let _ = write!(out, " max-steps {steps}");
    }
    if spec.salvage {
        out.push_str(" salvage");
    }
    if spec.verify {
        out.push_str(" verify");
    }
    if let Some(tenant) = &spec.tenant {
        let _ = write!(out, " tenant {}", one_token(tenant));
    }
    out
}

fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    token
        .parse()
        .map_err(|e| format!("bad {what} `{token}`: {e}"))
}

/// Parses an option tail (the tokens [`write_job_options`] writes) into
/// `spec`.
///
/// # Errors
///
/// The message for an unknown option, a missing or malformed value, a
/// repeated valued option, or a tenant outside [`valid_job_name`]'s
/// shape. The caller adds its line or frame context.
pub fn parse_job_options<'a>(
    spec: &mut JobSpec,
    tokens: impl IntoIterator<Item = &'a str>,
) -> Result<(), String> {
    let mut it = tokens.into_iter();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(opt) = it.next() {
        match opt {
            "salvage" => spec.salvage = true,
            "verify" => spec.verify = true,
            "flow" | "order" | "priority" | "max-steps" | "tenant" => {
                let v = it.next().ok_or_else(|| format!("{opt}: missing value"))?;
                if seen.contains(&opt) {
                    return Err(format!("repeated option `{opt}`"));
                }
                seen.push(opt);
                match opt {
                    "flow" => spec.flow = v.to_string(),
                    "order" => spec.order = Some(v.to_string()),
                    "priority" => spec.priority = parse_num(v, opt)?,
                    "max-steps" => spec.max_steps = Some(parse_num(v, opt)?),
                    _ if valid_job_name(v) => spec.tenant = Some(v.to_string()),
                    _ => return Err(bad_name("tenant", v)),
                }
            }
            other => return Err(format!("unknown job option `{other}`")),
        }
    }
    Ok(())
}

/// Renders a record's fields: `<status> steps N routed N degraded N
/// preempts N`, then ` detail <text>` when there is a detail.
pub fn write_record_fields(r: &JobRecord) -> String {
    let mut out = format!(
        "{} steps {} routed {} degraded {} preempts {}",
        r.status, r.steps, r.routed, r.degraded, r.preempts
    );
    if !r.detail.is_empty() {
        let _ = write!(out, " detail {}", r.detail);
    }
    out
}

/// Parses the fields [`write_record_fields`] writes into a record for
/// job `name`. The detail runs to the end of `text`, inner spacing
/// kept.
///
/// # Errors
///
/// The message for an unknown status, a missing, misplaced or malformed
/// count, an empty detail, or a trailing token. The caller adds its
/// line or record context.
pub fn parse_record_fields(name: &str, text: &str) -> Result<JobRecord, String> {
    let mut it = text.split_whitespace();
    let status = it.next().ok_or("missing status")?;
    if !STATUS_TOKENS.contains(&status) {
        return Err(format!("unknown status `{status}`"));
    }
    let mut counts = [0u64; 4];
    for (field, count) in ["steps", "routed", "degraded", "preempts"]
        .into_iter()
        .zip(&mut counts)
    {
        match it.next() {
            Some(key) if key == field => {}
            Some(other) => return Err(format!("expected `{field}`, found `{other}`")),
            None => return Err(format!("missing `{field}` field")),
        }
        let v = it.next().ok_or_else(|| format!("{field}: missing value"))?;
        *count = parse_num(v, field)?;
    }
    let detail = match it.next() {
        Some("detail") => match after_tokens(text, 10) {
            Some(detail) if !detail.is_empty() => detail.to_string(),
            _ => return Err("detail: missing text".to_string()),
        },
        Some(other) => return Err(format!("unexpected trailing token `{other}`")),
        None => String::new(),
    };
    let [steps, routed, degraded, preempts] = counts;
    Ok(JobRecord {
        name: name.to_string(),
        status: status.to_string(),
        steps,
        routed,
        degraded,
        preempts,
        detail,
    })
}

/// Serializes job specs as an `ocr-jobs-v1` manifest. Output of this
/// writer always re-parses; callers are responsible for `name` and
/// `chip` being representable (the parser rejects what
/// [`valid_job_name`] rejects, and a chip path containing whitespace or
/// `#` cannot round-trip a token-oriented format).
pub fn write_jobs(jobs: &[JobSpec]) -> String {
    let mut out = format!("{JOBS_MAGIC}\n");
    for job in jobs {
        let line = format!("job {} {}{}", job.name, job.chip, write_job_options(job));
        let _ = writeln!(out, "{}", sanitize(&line));
    }
    out
}

/// Checks the magic first non-blank, non-comment line, then yields each
/// later line's job name and a cursor over the tokens after the name.
fn job_lines<'a>(
    text: &'a str,
    magic: &str,
    what: &str,
) -> Result<impl Iterator<Item = Result<(&'a str, Cursor<'a>), ParseError>>, ParseError> {
    let mut lines = reader::lines(text);
    let wrong = format!("not a {what} file (expected `{magic}`)");
    reader::expect_magic(&mut lines, magic, &wrong, &format!("empty {what} file"))?;
    Ok(lines.map(|(directive, mut cur)| match directive {
        "job" => match cur.next() {
            Some(name) => Ok((name, cur)),
            None => Err(cur.err("job: missing name")),
        },
        other => Err(cur.err(format!("unknown directive `{other}`"))),
    }))
}

/// Parses an `ocr-jobs-v1` manifest (or spool `.job` file).
///
/// # Errors
///
/// A line-numbered [`ParseError`] on a missing magic line, an unknown
/// directive or option, a duplicate or malformed job name, a bad
/// number, or a repeated option.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, ParseError> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    for line in job_lines(text, JOBS_MAGIC, "job manifest")? {
        let (name, mut cur) = line?;
        if !valid_job_name(name) {
            return Err(cur.err(bad_name("job name", name)));
        }
        if jobs.iter().any(|j| j.name == name) {
            return Err(cur.err(format!("duplicate job name `{name}`")));
        }
        let chip = cur
            .next()
            .ok_or_else(|| cur.err(format!("job {name}: missing chip path")))?;
        let mut spec = JobSpec::new(name, chip);
        parse_job_options(&mut spec, &mut cur).map_err(|m| cur.err(m))?;
        jobs.push(spec);
    }
    Ok(jobs)
}

/// Serializes job records as an `ocr-results-v1` manifest.
pub fn write_results(records: &[JobRecord]) -> String {
    let mut out = format!("{RESULTS_MAGIC}\n");
    for r in records {
        let line = format!("job {} {}", r.name, write_record_fields(r));
        let _ = writeln!(out, "{}", sanitize(&line));
    }
    out
}

/// Parses an `ocr-results-v1` manifest.
///
/// # Errors
///
/// A line-numbered [`ParseError`] on a missing magic line, an unknown
/// directive or status token, a malformed field, or a duplicate job.
pub fn parse_results(text: &str) -> Result<Vec<JobRecord>, ParseError> {
    let mut records: Vec<JobRecord> = Vec::new();
    for line in job_lines(text, RESULTS_MAGIC, "result manifest")? {
        let (name, mut cur) = line?;
        if !valid_job_name(name) {
            return Err(cur.err(format!("bad job name `{name}`")));
        }
        if records.iter().any(|r| r.name == name) {
            return Err(cur.err(format!("duplicate job `{name}`")));
        }
        let fields = cur.joined();
        records.push(parse_record_fields(name, &fields).map_err(|m| cur.err(m))?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specimen() -> Vec<JobSpec> {
        vec![
            JobSpec::new("alpha", "chips/a.ocr"),
            JobSpec {
                flow: "channel2".into(),
                priority: -3,
                max_steps: Some(500),
                salvage: true,
                verify: true,
                ..JobSpec::new("beta-2.x", "b.ocr")
            },
            JobSpec {
                order: Some("shuffle:7".into()),
                tenant: Some("acme".into()),
                ..JobSpec::new("gamma", "c.ocr")
            },
        ]
    }

    #[test]
    fn jobs_round_trip() {
        let jobs = specimen();
        let text = write_jobs(&jobs);
        let parsed = parse_jobs(&text).expect("round-trip parses");
        assert_eq!(parsed, jobs);
        assert_eq!(write_jobs(&parsed), text);
    }

    #[test]
    fn jobs_reject_bad_input() {
        for (text, needle) in [
            ("", "empty"),
            ("ocr-ckpt-v1\n", "not a job manifest"),
            ("ocr-jobs-v1\nnet a b\n", "unknown directive"),
            ("ocr-jobs-v1\njob\n", "missing name"),
            ("ocr-jobs-v1\njob .hidden a.ocr\n", "bad job name"),
            ("ocr-jobs-v1\njob a/b a.ocr\n", "bad job name"),
            (
                "ocr-jobs-v1\njob a a.ocr\njob a b.ocr\n",
                "duplicate job name",
            ),
            ("ocr-jobs-v1\njob a\n", "missing chip path"),
            ("ocr-jobs-v1\njob a a.ocr priority x\n", "bad priority"),
            ("ocr-jobs-v1\njob a a.ocr max-steps\n", "missing value"),
            (
                "ocr-jobs-v1\njob a a.ocr flow x flow y\n",
                "repeated option",
            ),
            ("ocr-jobs-v1\njob a a.ocr order\n", "order: missing value"),
            (
                "ocr-jobs-v1\njob a a.ocr order longest order shortest\n",
                "repeated option `order`",
            ),
            ("ocr-jobs-v1\njob a a.ocr turbo\n", "unknown job option"),
            ("ocr-jobs-v1\njob a a.ocr tenant\n", "tenant: missing value"),
            ("ocr-jobs-v1\njob a a.ocr tenant .x\n", "bad tenant"),
            (
                "ocr-jobs-v1\njob a a.ocr tenant x tenant y\n",
                "repeated option `tenant`",
            ),
        ] {
            let e = parse_jobs(text).expect_err(text);
            assert!(e.message.contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# spool file\nocr-jobs-v1\n\n# batch 1\njob a a.ocr # trailing\n";
        let jobs = parse_jobs(text).expect("parses");
        assert_eq!(jobs, vec![JobSpec::new("a", "a.ocr")]);
    }

    #[test]
    fn results_round_trip() {
        let records = vec![
            JobRecord {
                name: "alpha".into(),
                status: "done".into(),
                steps: 431,
                routed: 18,
                degraded: 0,
                preempts: 2,
                detail: String::new(),
            },
            JobRecord {
                name: "beta".into(),
                status: "failed".into(),
                steps: 0,
                routed: 0,
                degraded: 0,
                preempts: 0,
                detail: "chip missing: no such file".into(),
            },
        ];
        let text = write_results(&records);
        let parsed = parse_results(&text).expect("round-trip parses");
        assert_eq!(parsed, records);
        assert_eq!(write_results(&parsed), text);
    }

    #[test]
    fn results_reject_bad_input() {
        for (text, needle) in [
            ("ocr-jobs-v1\n", "not a result manifest"),
            ("ocr-results-v1\njob a won\n", "unknown status"),
            ("ocr-results-v1\njob a done\n", "missing `steps`"),
            (
                "ocr-results-v1\njob a done steps 1 routed 2\n",
                "missing `degraded`",
            ),
            (
                "ocr-results-v1\njob a done steps x routed 0 degraded 0 preempts 0\n",
                "bad steps",
            ),
            (
                "ocr-results-v1\njob a done steps 1 routed 0 degraded 0 preempts 0 woops\n",
                "unexpected trailing token",
            ),
            (
                "ocr-results-v1\njob a done steps 1 routed 0 degraded 0 preempts 0 detail\n",
                "detail: missing text",
            ),
        ] {
            let e = parse_results(text).expect_err(text);
            assert!(e.message.contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn detail_text_is_sanitized_to_one_line() {
        let records = vec![JobRecord {
            name: "a".into(),
            status: "failed".into(),
            steps: 0,
            routed: 0,
            degraded: 0,
            preempts: 0,
            detail: "panic:\nnot # a comment".into(),
        }];
        let text = write_results(&records);
        let parsed = parse_results(&text).expect("sanitized detail re-parses");
        assert_eq!(parsed[0].detail, "panic: not a comment");
    }
}
