//! The service's write-ahead job journal: typed job state-transition
//! events over `ocr-journal-v1` framing ([`ocr_io::journal`]), an
//! append-and-fsync writer, and the tolerant replay that rebuilds the
//! scheduler's view of every accepted job after a crash.
//!
//! One payload per record; `<seq>` is the engine's submission index,
//! which names jobs stably across duplicate names:
//!
//! ```text
//! accept <seq> <name> <chip|-> [flow F] [order O] [priority P]
//!        [max-steps N] [salvage] [verify] [tenant T]
//! base <seq> <path to end of line>
//! start <seq>
//! preempt <seq> steps <n> preempts <k> ckpt <path to end of line>
//! end <seq> <status> steps <n> routed <n> degraded <n> preempts <n>
//!     [detail <text to end of line>]
//! ```
//!
//! The `accept` option tail and the `end` record fields are the
//! `ocr-jobs-v1` / `ocr-results-v1` grammars, written and parsed by
//! [`ocr_io::job`]; the record framing's `r <len> <fnv64hex>` header is
//! the wire's frame header codec.
//!
//! `accept` is written (and the journal fsynced) before the intake
//! acknowledges a submission, so an accepted job can never be lost:
//! either the spool file still exists on restart, or the journal
//! already names the job. `end` is written after the job's answer
//! files, so a journaled terminal status always has its answers on
//! disk — recovery double-checks and re-runs the job when they are
//! missing. Events replay in order with last-one-wins semantics (a
//! job whose stale terminal record was distrusted legitimately ends
//! again after its re-run).

use crate::ServeError;
use ocr_io::job::{
    one_token, parse_job_options, parse_record_fields, write_job_options, write_record_fields,
    JobRecord, JobSpec,
};
use ocr_io::journal::{frame_record, replay_journal, JOURNAL_MAGIC};
use ocr_io::wire::after_tokens;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Everything the journal knows about one accepted job after replay.
pub(crate) struct RecoveredJob {
    /// The accepted spec, reconstructed from its `accept` record.
    pub spec: JobSpec,
    /// Directory the chip path resolves against, when the submission
    /// had one (spool or manifest). `None` means the chip cannot be
    /// reloaded from disk; the job waits for redelivery.
    pub base: Option<PathBuf>,
    /// Steps charged up to the last journaled preemption.
    pub steps: u64,
    /// Preemptions journaled so far.
    pub preempts: u64,
    /// Checkpoint path from the last `preempt` record.
    pub ckpt: Option<PathBuf>,
    /// The terminal record, when the job already ended.
    pub end: Option<JobRecord>,
}

/// The append side of the job journal. Appends are atomic per record:
/// every attempt first truncates back to the committed length, so a
/// torn append never survives into the next record.
pub(crate) struct JobJournal {
    path: PathBuf,
    file: std::fs::File,
    len: u64,
}

impl JobJournal {
    /// Opens (or creates) `dir/serve.journal`, replays it tolerantly,
    /// and truncates any torn or checksum-bad tail so appends extend
    /// the valid prefix. Returns the writer, the recovered jobs in
    /// submission order, and human-readable warnings for anything the
    /// replay had to drop or skip.
    pub fn open(dir: &Path) -> Result<(JobJournal, Vec<RecoveredJob>, Vec<String>), ServeError> {
        let io_err = |path: &Path| {
            let path = path.to_path_buf();
            move |e: std::io::Error| ServeError::Io {
                path,
                message: e.to_string(),
            }
        };
        std::fs::create_dir_all(dir).map_err(io_err(dir))?;
        let path = dir.join("serve.journal");
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&path)(e)),
        };
        let replay = replay_journal(&bytes);
        let mut warnings: Vec<String> = Vec::new();
        if let Some(w) = &replay.warning {
            warnings.push(format!("journal: {w}; dropping the damaged tail"));
        }
        ocr_obs::count("journal.replayed", replay.records.len() as u64);
        // Declare the durability counters up front so a service stats
        // document always carries them, even at zero.
        ocr_obs::count("journal.append", 0);
        ocr_obs::count("recover.jobs_resumed", 0);
        ocr_obs::count("io.retries", 0);
        let (jobs, mut event_warnings) = rebuild(&replay.records);
        warnings.append(&mut event_warnings);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(io_err(&path))?;
        let mut len = replay.valid_len;
        file.set_len(len).map_err(io_err(&path))?;
        if len == 0 {
            // Fresh (or unusable) journal: start over with the magic.
            let magic = format!("{JOURNAL_MAGIC}\n");
            file.write_all(magic.as_bytes()).map_err(io_err(&path))?;
            len = magic.len() as u64;
        }
        file.sync_data().map_err(io_err(&path))?;
        Ok((JobJournal { path, file, len }, jobs, warnings))
    }

    /// Appends one framed record. Each attempt truncates back to the
    /// committed length first, so a torn write from a previous attempt
    /// (or the `journal.append` fault) never survives. Not fsynced —
    /// call [`JobJournal::sync`] at the commit boundary.
    fn append(&mut self, payload: &str) -> Result<(), ServeError> {
        let line = frame_record(payload);
        let result = ocr_io::retry_io(|| {
            self.file.set_len(self.len)?;
            self.file.seek(SeekFrom::Start(self.len))?;
            if ocr_fault::point("journal.append") {
                // Simulate a torn append: half the record lands, then
                // the device reports an error.
                let _ = self.file.write_all(&line.as_bytes()[..line.len() / 2]);
                return Err(std::io::Error::other("injected torn write"));
            }
            self.file.write_all(line.as_bytes())
        });
        match result {
            Ok(()) => {
                self.len += line.len() as u64;
                ocr_obs::count("journal.append", 1);
                Ok(())
            }
            Err(e) => Err(ServeError::Io {
                path: self.path.clone(),
                message: e.to_string(),
            }),
        }
    }

    /// Fsyncs the journal — the commit boundary for everything
    /// appended since the last sync.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.file.sync_data().map_err(|e| ServeError::Io {
            path: self.path.clone(),
            message: e.to_string(),
        })
    }

    /// Journals an accepted submission (and its reload base, if any).
    /// Names and chip paths are journaled as [`one_token`]s: only
    /// embedded API submissions can carry whitespace, and those cannot
    /// be reloaded from disk anyway.
    pub fn accept(
        &mut self,
        seq: usize,
        spec: &JobSpec,
        base: Option<&Path>,
    ) -> Result<(), ServeError> {
        self.append(&format!(
            "accept {seq} {} {}{}",
            one_token(&spec.name),
            one_token(&spec.chip),
            write_job_options(spec)
        ))?;
        if let Some(base) = base {
            self.append(&format!("base {seq} {}", base.display()))?;
        }
        Ok(())
    }

    /// Journals a job's first admission onto the pool.
    pub fn start(&mut self, seq: usize) -> Result<(), ServeError> {
        self.append(&format!("start {seq}"))
    }

    /// Journals a preemption: cumulative steps, preempt count, and the
    /// checkpoint the next slice resumes from.
    pub fn preempt(
        &mut self,
        seq: usize,
        steps: u64,
        preempts: u64,
        ckpt: &Path,
    ) -> Result<(), ServeError> {
        self.append(&format!(
            "preempt {seq} steps {steps} preempts {preempts} ckpt {}",
            ckpt.display()
        ))
    }

    /// Journals a terminal record (written after the answer files).
    pub fn end(&mut self, seq: usize, record: &JobRecord) -> Result<(), ServeError> {
        self.append(&format!("end {seq} {}", write_record_fields(record)))
    }
}

/// Inverse of [`one_token`] for a journaled name or chip path.
fn untoken(s: &str) -> String {
    if s == "-" {
        String::new()
    } else {
        s.to_string()
    }
}

fn rebuild(records: &[(usize, String)]) -> (Vec<RecoveredJob>, Vec<String>) {
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    let mut warnings = Vec::new();
    for (line, payload) in records {
        if let Err(message) = apply(&mut jobs, payload) {
            warnings.push(format!("journal: line {line}: {message}; record skipped"));
        }
    }
    (jobs, warnings)
}

/// Applies one well-framed event to the recovered-job list. Events
/// replay in order; a later record overrides an earlier one (a
/// distrusted terminal job can legitimately preempt and end again).
fn apply(jobs: &mut Vec<RecoveredJob>, payload: &str) -> Result<(), String> {
    let mut tokens = payload.split_whitespace();
    let kind = tokens.next().ok_or("empty record")?;
    let seq: usize = tokens
        .next()
        .ok_or("missing seq")?
        .parse()
        .map_err(|e| format!("bad seq: {e}"))?;
    if kind == "accept" {
        if seq != jobs.len() {
            return Err(format!(
                "accept out of order (seq {seq}, expected {})",
                jobs.len()
            ));
        }
        let name = tokens.next().ok_or("accept: missing name")?;
        let chip = tokens.next().ok_or("accept: missing chip")?;
        let mut spec = JobSpec::new(untoken(name), untoken(chip));
        parse_job_options(&mut spec, tokens).map_err(|e| format!("accept: {e}"))?;
        jobs.push(RecoveredJob {
            spec,
            base: None,
            steps: 0,
            preempts: 0,
            ckpt: None,
            end: None,
        });
        return Ok(());
    }
    if !matches!(kind, "base" | "start" | "preempt" | "end") {
        return Err(format!("unknown event `{kind}`"));
    }
    let job = jobs
        .get_mut(seq)
        .ok_or(format!("{kind}: unknown seq {seq}"))?;
    match kind {
        "base" => {
            let path = after_tokens(payload, 2).filter(|p| !p.is_empty());
            job.base = Some(PathBuf::from(path.ok_or("base: missing path")?));
        }
        "preempt" => {
            let mut count = |key: &str| match (tokens.next(), tokens.next()) {
                (Some(k), Some(v)) if k == key => v
                    .parse::<u64>()
                    .map_err(|e| format!("preempt: bad {key}: {e}")),
                _ => Err(format!("preempt: missing `{key}`")),
            };
            let (steps, preempts) = (count("steps")?, count("preempts")?);
            let ckpt = match tokens.next() {
                Some("ckpt") => after_tokens(payload, 7).filter(|p| !p.is_empty()),
                _ => None,
            };
            job.ckpt = Some(PathBuf::from(
                ckpt.ok_or("preempt: missing checkpoint path")?,
            ));
            job.steps = steps;
            job.preempts = preempts;
        }
        "end" => {
            let fields = after_tokens(payload, 2).unwrap_or("");
            let record =
                parse_record_fields(&job.spec.name, fields).map_err(|e| format!("end: {e}"))?;
            job.end = Some(record);
        }
        // `start` is informational: admission restores no state beyond
        // what `accept`/`preempt` carry, but an unknown seq is damage.
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ocr-sjournal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A spec that sets every job option.
    fn full_spec() -> JobSpec {
        JobSpec {
            flow: "channel2".into(),
            order: Some("shuffle:7".into()),
            priority: -3,
            max_steps: Some(500),
            salvage: true,
            verify: true,
            tenant: Some("acme".into()),
            ..JobSpec::new("alpha", "alpha.ocr")
        }
    }

    /// The three carriers of a job spec — manifest, wire submit and
    /// journal `accept` — pinned byte for byte.
    #[test]
    fn every_carrier_writes_the_full_spec_byte_for_byte() {
        let spec = full_spec();
        assert_eq!(
            ocr_io::job::write_jobs(std::slice::from_ref(&spec)),
            "ocr-jobs-v1\njob alpha alpha.ocr flow channel2 order shuffle:7 priority -3 \
             max-steps 500 salvage verify tenant acme\n"
        );
        assert_eq!(
            ocr_io::wire::submit_payload(&spec, "die 0 0 10 10\n"),
            "submit alpha flow channel2 order shuffle:7 priority -3 max-steps 500 salvage \
             verify tenant acme\ndie 0 0 10 10\n"
        );
        let dir = scratch("golden");
        let (mut journal, _, _) = JobJournal::open(&dir).expect("open");
        journal.accept(0, &spec, None).expect("accept");
        drop(journal);
        let bytes = std::fs::read_to_string(dir.join("serve.journal")).expect("read");
        assert_eq!(
            bytes,
            "ocr-journal-v1\nr 107 7baf305ca4df7267 accept 0 alpha alpha.ocr flow channel2 \
             order shuffle:7 priority -3 max-steps 500 salvage verify tenant acme\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_round_trip_through_a_reopen() {
        let dir = scratch("roundtrip");
        let (mut journal, jobs, warnings) = JobJournal::open(&dir).expect("open");
        assert!(jobs.is_empty());
        assert!(warnings.is_empty());
        let spec = full_spec();
        journal
            .accept(0, &spec, Some(Path::new("/tmp/spool dir")))
            .expect("accept");
        journal.start(0).expect("start");
        journal
            .preempt(0, 128, 1, Path::new("/tmp/out/alpha/job.ckpt"))
            .expect("preempt");
        journal
            .accept(1, &JobSpec::new("beta", "beta.ocr"), None)
            .expect("accept");
        journal
            .end(
                1,
                &JobRecord {
                    name: "beta".into(),
                    status: "failed".into(),
                    steps: 7,
                    routed: 0,
                    degraded: 0,
                    preempts: 0,
                    detail: "poisoned:  fault   injected at serve.job.beta".into(),
                },
            )
            .expect("end");
        journal.sync().expect("sync");
        drop(journal);

        let (_journal, jobs, warnings) = JobJournal::open(&dir).expect("reopen");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].spec, spec);
        assert_eq!(jobs[0].base.as_deref(), Some(Path::new("/tmp/spool dir")));
        assert_eq!(jobs[0].steps, 128);
        assert_eq!(jobs[0].preempts, 1);
        assert_eq!(
            jobs[0].ckpt.as_deref(),
            Some(Path::new("/tmp/out/alpha/job.ckpt"))
        );
        assert!(jobs[0].end.is_none());
        let end = jobs[1].end.as_ref().expect("beta ended");
        assert_eq!(end.status, "failed");
        assert_eq!(end.steps, 7);
        assert_eq!(end.detail, "poisoned:  fault   injected at serve.job.beta");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = scratch("torn");
        let (mut journal, _, _) = JobJournal::open(&dir).expect("open");
        journal
            .accept(0, &JobSpec::new("alpha", "alpha.ocr"), None)
            .expect("accept");
        journal.sync().expect("sync");
        drop(journal);
        let path = dir.join("serve.journal");
        let mut bytes = std::fs::read(&path).expect("read");
        let good_len = bytes.len();
        bytes.extend_from_slice(b"r 20 0123456789abcdef torn");
        std::fs::write(&path, &bytes).expect("tear");

        let (mut journal, jobs, warnings) = JobJournal::open(&dir).expect("reopen");
        assert_eq!(jobs.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("torn"), "{warnings:?}");
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            good_len as u64,
            "the damaged tail is truncated on open"
        );
        journal.start(0).expect("append after heal");
        drop(journal);
        let (_, jobs, warnings) = JobJournal::open(&dir).expect("reopen");
        assert_eq!(jobs.len(), 1);
        assert!(warnings.is_empty(), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_events_warn_but_do_not_stop_replay() {
        let dir = scratch("unknown");
        let path = dir.join("serve.journal");
        let mut text = format!("{JOURNAL_MAGIC}\n");
        text.push_str(&frame_record("accept 0 alpha alpha.ocr"));
        text.push_str(&frame_record("vacuum 0 full"));
        text.push_str(&frame_record("accept 1 beta beta.ocr"));
        std::fs::write(&path, text).expect("write");
        let (_, jobs, warnings) = JobJournal::open(&dir).expect("open");
        assert_eq!(jobs.len(), 2, "good records around the bad one apply");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("vacuum"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_with_wrong_magic_resets_with_a_warning() {
        let dir = scratch("magic");
        let path = dir.join("serve.journal");
        std::fs::write(&path, "ocr-results-v1\nalpha done\n").expect("write");
        let (mut journal, jobs, warnings) = JobJournal::open(&dir).expect("open");
        assert!(jobs.is_empty());
        assert_eq!(warnings.len(), 1);
        journal
            .accept(0, &JobSpec::new("alpha", "alpha.ocr"), None)
            .expect("accept after reset");
        drop(journal);
        let (_, jobs, warnings) = JobJournal::open(&dir).expect("reopen");
        assert_eq!(jobs.len(), 1);
        assert!(warnings.is_empty(), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_append_is_retried_and_heals() {
        let dir = scratch("fault");
        let plan = ocr_fault::plan(5).fire_at("journal.append", 1.0, 1).build();
        let collector = ocr_obs::Collector::new();
        ocr_obs::with_collector(&collector, || {
            ocr_fault::with_plan(&plan, || {
                let (mut journal, _, _) = JobJournal::open(&dir).expect("open");
                journal
                    .accept(0, &JobSpec::new("alpha", "alpha.ocr"), None)
                    .expect("append retries past the torn write");
                journal.sync().expect("sync");
            });
        });
        let telemetry = collector.snapshot();
        assert!(
            telemetry.counter("io.retries").unwrap_or(0) >= 1,
            "the retry is counted"
        );
        let (_, jobs, warnings) = JobJournal::open(&dir).expect("reopen");
        assert_eq!(jobs.len(), 1, "the healed record replays");
        assert!(warnings.is_empty(), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_end_record_overrides_the_first() {
        let dir = scratch("reend");
        let path = dir.join("serve.journal");
        let mut text = format!("{JOURNAL_MAGIC}\n");
        text.push_str(&frame_record("accept 0 alpha alpha.ocr"));
        text.push_str(&frame_record(
            "end 0 failed steps 5 routed 0 degraded 0 preempts 0",
        ));
        text.push_str(&frame_record(
            "end 0 done steps 41 routed 6 degraded 0 preempts 1",
        ));
        std::fs::write(&path, text).expect("write");
        let (_, jobs, warnings) = JobJournal::open(&dir).expect("open");
        assert!(warnings.is_empty(), "{warnings:?}");
        let end = jobs[0].end.as_ref().expect("ended");
        assert_eq!(end.status, "done");
        assert_eq!(end.steps, 41);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
