//! Job intake: resolving submitted specs into runnable [`JobInput`]s,
//! reading `ocr-jobs-v1` manifests, and watching a spool directory.
//!
//! The spool protocol is deliberately plain: drop an `ocr-jobs-v1`
//! document named `*.job` into the directory and the service consumes
//! (deletes) it. Files are picked up in filename order, so a scan is
//! deterministic for a fixed set of files. A file named `stop` closes
//! the intake: the service drains its queue and exits.

use crate::{JobInput, LoadedChip, ServeError};
use ocr_core::{ordering_from_name, FlowKind};
use ocr_io::ckpt::fnv1a_64;
use ocr_io::job::{parse_jobs, valid_job_name, JobSpec};
use ocr_io::{load_chip, write_chip};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Resolves a submitted spec into a [`JobInput`]: parses and audits the
/// chip (relative paths resolve against `base`) and binds the flow
/// kind. Every failure becomes an `Err` load — the scheduler answers it
/// as `rejected` rather than dropping the submission.
pub fn load_job(spec: JobSpec, base: &Path) -> JobInput {
    let load = resolve(&spec, base);
    JobInput {
        spec,
        load,
        base: Some(base.to_path_buf()),
    }
}

fn resolve(spec: &JobSpec, base: &Path) -> Result<LoadedChip, String> {
    let kind =
        FlowKind::from_name(&spec.flow).ok_or_else(|| format!("unknown flow `{}`", spec.flow))?;
    let ordering = match &spec.order {
        Some(name) => {
            // The racer manages its own controls, which cannot compose
            // with the scheduler's slice budgets — so no `portfolio`
            // here; it falls out naturally as an unknown name.
            let ordering =
                ordering_from_name(name).ok_or_else(|| format!("unknown ordering `{name}`"))?;
            if kind != FlowKind::OverCell {
                return Err(format!(
                    "ordering `{name}` applies to the overcell flow, not `{}`",
                    spec.flow
                ));
            }
            Some(ordering)
        }
        None => None,
    };
    let (layout, placement) = load_chip(&base.join(&spec.chip))?;
    // Fingerprint the canonical re-serialization, exactly as `ocr
    // route --checkpoint` does, so service checkpoints and standalone
    // checkpoints agree on the chip hash.
    let chip_hash = fnv1a_64(&write_chip(&layout, &placement));
    Ok(LoadedChip {
        kind,
        ordering,
        layout,
        placement,
        chip_hash,
    })
}

/// Reads an `ocr-jobs-v1` manifest and resolves every spec (chip paths
/// relative to the manifest's directory).
///
/// # Errors
///
/// [`ServeError::Io`] when the manifest itself is unreadable or
/// malformed; individual chips that fail to load are per-job
/// rejections, not errors.
pub fn manifest_jobs(path: &Path) -> Result<Vec<JobInput>, ServeError> {
    let text = std::fs::read_to_string(path).map_err(|e| ServeError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let specs = parse_jobs(&text).map_err(|e| ServeError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let base = path.parent().unwrap_or(Path::new(".")).to_path_buf();
    Ok(specs.into_iter().map(|s| load_job(s, &base)).collect())
}

/// One scan of a spool directory: consumes every `*.job` file in
/// filename order and resolves the jobs it carries (chip paths relative
/// to the spool directory). A malformed job file becomes a single
/// rejected pseudo-job named after the file, so nothing is silently
/// swallowed. Returns the resolved batch.
///
/// # Errors
///
/// [`ServeError::Io`] when the directory itself cannot be read.
pub fn scan_spool(dir: &Path) -> Result<Vec<JobInput>, ServeError> {
    let mut sticky = BTreeSet::new();
    let (mut jobs, files) = scan_spool_collect(dir, &sticky)?;
    jobs.extend(consume_files(&files, &mut sticky));
    Ok(jobs)
}

/// The read half of a spool scan: resolves the jobs of every `*.job`
/// file not recorded in `sticky`, *without* deleting anything, and
/// returns the scanned files alongside the batch. Deletion is deferred
/// to [`consume_files`] so a crash-safe engine can journal the batch
/// first — a crash between scan and consume redelivers the files
/// instead of losing them.
fn scan_spool_collect(
    dir: &Path,
    sticky: &BTreeSet<PathBuf>,
) -> Result<(Vec<JobInput>, Vec<PathBuf>), ServeError> {
    let entries = std::fs::read_dir(dir).map_err(|e| ServeError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "job"))
        .filter(|p| !sticky.contains(p))
        .collect();
    files.sort();
    let mut jobs = Vec::new();
    for file in &files {
        let batch = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_jobs(&text).map_err(|e| e.to_string()));
        match batch {
            Ok(specs) => {
                jobs.extend(specs.into_iter().map(|s| load_job(s, dir)));
            }
            Err(message) => {
                // The pseudo-job's name must survive the results-file
                // round trip, so an invalid stem (`.x.job`, `a b.job`)
                // falls back like a non-UTF-8 one.
                let stem = file
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .filter(|s| valid_job_name(s))
                    .unwrap_or("malformed");
                jobs.push(JobInput {
                    spec: JobSpec::new(stem, ""),
                    load: Err(format!("{}: {message}", file.display())),
                    base: None,
                });
            }
        }
    }
    Ok((jobs, files))
}

/// The delete half of a spool scan: consumes the scanned files so their
/// jobs run exactly once. A file that cannot be removed is remembered
/// in `sticky` — skipped by later scans instead of resubmitting its
/// jobs forever — and surfaced as a rejected pseudo-job.
fn consume_files(files: &[PathBuf], sticky: &mut BTreeSet<PathBuf>) -> Vec<JobInput> {
    let mut failures = Vec::new();
    for file in files {
        if let Err(e) = std::fs::remove_file(file) {
            failures.push(JobInput {
                spec: JobSpec::new("spool-remove-failed", ""),
                load: Err(format!("{}: cannot consume: {e}", file.display())),
                base: None,
            });
            sticky.insert(file.clone());
        }
    }
    failures
}

/// A spool-directory [`crate::Intake`]: polls the directory for `*.job`
/// files, sleeping between scans only while the engine is idle. Closes
/// when a `stop` sentinel file appears (consumed) or — in drain mode —
/// after the first scan.
pub struct SpoolIntake {
    dir: PathBuf,
    poll: std::time::Duration,
    drain: bool,
    scanned: bool,
    closing: bool,
    sticky: BTreeSet<PathBuf>,
    /// Files delivered by the last scan but not yet acknowledged —
    /// still on disk, so a crash before the engine journals the batch
    /// redelivers them on restart.
    pending: Vec<PathBuf>,
    /// Consume failures discovered at acknowledge time, delivered as
    /// rejected pseudo-jobs with the next batch.
    consume_failures: Vec<JobInput>,
    error: Option<ServeError>,
}

impl SpoolIntake {
    /// Watches `dir`, sleeping `poll_ms` between idle scans. With
    /// `drain`, performs a single scan and closes.
    pub fn new(dir: &Path, poll_ms: u64, drain: bool) -> SpoolIntake {
        SpoolIntake {
            dir: dir.to_path_buf(),
            poll: std::time::Duration::from_millis(poll_ms.max(1)),
            drain,
            scanned: false,
            closing: false,
            sticky: BTreeSet::new(),
            pending: Vec::new(),
            consume_failures: Vec::new(),
            error: None,
        }
    }

    /// The first directory-read error that closed the intake, if any.
    pub fn take_error(&mut self) -> Option<ServeError> {
        self.error.take()
    }
}

impl crate::Intake for SpoolIntake {
    fn poll(&mut self, idle: bool) -> Option<Vec<JobInput>> {
        if self.closing || (self.drain && self.scanned) {
            return None;
        }
        // A caller that never acknowledges (direct polling, no
        // journal) still consumes each batch before the next scan, so
        // a rescan cannot resubmit delivered jobs.
        self.ack();
        if self.scanned && idle {
            // Nothing queued and nothing new last time: sleep before
            // rescanning instead of spinning on the directory — but in
            // short slices, watching for the stop sentinel, so a
            // shutdown request never waits out a long poll interval.
            let mut remaining = self.poll;
            let slice = std::time::Duration::from_millis(20);
            while !remaining.is_zero() {
                if self.dir.join("stop").exists() {
                    break;
                }
                let nap = remaining.min(slice);
                std::thread::sleep(nap);
                remaining = remaining.saturating_sub(nap);
            }
        }
        let stop = self.dir.join("stop");
        let stopping = stop.exists();
        let (scanned, files) = match scan_spool_collect(&self.dir, &self.sticky) {
            Ok(scan) => scan,
            Err(e) => {
                // The spool went away: close the intake so the engine
                // drains and reports, instead of erroring mid-flight.
                self.error = Some(e);
                return None;
            }
        };
        self.pending = files;
        let mut batch = std::mem::take(&mut self.consume_failures);
        batch.extend(scanned);
        self.scanned = true;
        if stopping {
            // The sentinel is consumed now, so the decision to close
            // must outlive this call: deliver any jobs scanned alongside
            // it, then close on the next poll.
            let _ = std::fs::remove_file(&stop);
            self.closing = true;
            if batch.is_empty() {
                // Nothing to deliver and no poll will follow: consume
                // what the final scan picked up (e.g. empty job files).
                self.ack();
                return None;
            }
        }
        Some(batch)
    }

    fn ack(&mut self) {
        let files = std::mem::take(&mut self.pending);
        let mut failures = consume_files(&files, &mut self.sticky);
        self.consume_failures.append(&mut failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_io::job::write_jobs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ocr-intake-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn load_job_rejects_unknown_flow_and_missing_chip() {
        let dir = scratch("load");
        let mut spec = JobSpec::new("a", "missing.ocr");
        spec.flow = "warp".into();
        let input = load_job(spec, &dir);
        assert!(input.load.unwrap_err().contains("unknown flow"));
        let input = load_job(JobSpec::new("b", "missing.ocr"), &dir);
        assert!(input.load.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_job_validates_the_order_option() {
        let dir = scratch("order");
        let chip = ocr_gen::random::small_random(4, 2, 3, 8, 7);
        std::fs::write(
            dir.join("chip.ocr"),
            write_chip(&chip.layout, &chip.placement),
        )
        .expect("chip");
        let mut spec = JobSpec::new("a", "chip.ocr");
        spec.order = Some("criticality".into());
        let input = load_job(spec, &dir);
        let loaded = input.load.expect("valid ordering loads");
        assert_eq!(
            loaded.ordering.as_ref().map(|o| o.name()),
            Some("criticality".to_string())
        );
        let mut spec = JobSpec::new("b", "chip.ocr");
        spec.order = Some("portfolio".into());
        let input = load_job(spec, &dir);
        assert!(
            input.load.unwrap_err().contains("unknown ordering"),
            "portfolio needs its own controls: rejected as unknown"
        );
        let mut spec = JobSpec::new("c", "chip.ocr");
        spec.flow = "channel2".into();
        spec.order = Some("longest".into());
        let input = load_job(spec, &dir);
        assert!(input
            .load
            .unwrap_err()
            .contains("applies to the overcell flow"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spool_scan_consumes_files_in_name_order() {
        let dir = scratch("scan");
        let chip = ocr_gen::random::small_random(4, 2, 3, 8, 7);
        let text = write_chip(&chip.layout, &chip.placement);
        std::fs::write(dir.join("chip.ocr"), &text).expect("chip");
        std::fs::write(
            dir.join("b.job"),
            write_jobs(&[JobSpec::new("beta", "chip.ocr")]),
        )
        .expect("job");
        std::fs::write(
            dir.join("a.job"),
            write_jobs(&[JobSpec::new("alpha", "chip.ocr")]),
        )
        .expect("job");
        std::fs::write(dir.join("notes.txt"), "ignored").expect("stray");
        let jobs = scan_spool(&dir).expect("scan");
        let names: Vec<&str> = jobs.iter().map(|j| j.spec.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"], "filename order, .job only");
        assert!(jobs.iter().all(|j| j.load.is_ok()));
        assert!(!dir.join("a.job").exists(), "job files are consumed");
        assert!(dir.join("notes.txt").exists(), "strays are left alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_spool_file_becomes_a_rejection() {
        let dir = scratch("bad");
        std::fs::write(dir.join("x.job"), "not a jobs file").expect("job");
        // A stem that is not a valid job name must not leak into the
        // pseudo-job (it would poison the service's results file).
        std::fs::write(dir.join(".x.job"), "not a jobs file").expect("job");
        let jobs = scan_spool(&dir).expect("scan");
        let names: Vec<&str> = jobs.iter().map(|j| j.spec.name.as_str()).collect();
        assert_eq!(names, ["malformed", "x"], "invalid stems are sanitized");
        assert!(jobs.iter().all(|j| j.load.is_err()));
        assert!(!dir.join("x.job").exists());
        assert!(!dir.join(".x.job").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sticky_files_are_skipped_on_rescan() {
        let dir = scratch("sticky");
        std::fs::write(dir.join("x.job"), "not a jobs file").expect("job");
        let mut sticky = BTreeSet::new();
        sticky.insert(dir.join("x.job"));
        let (jobs, files) = scan_spool_collect(&dir, &sticky).expect("scan");
        assert!(jobs.is_empty(), "sticky files are not resubmitted");
        assert!(files.is_empty(), "sticky files are not rescanned");
        assert!(dir.join("x.job").exists(), "sticky files are left alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_defers_consumption_until_ack() {
        use crate::Intake;
        let dir = scratch("ack");
        let chip = ocr_gen::random::small_random(4, 2, 3, 8, 7);
        std::fs::write(
            dir.join("chip.ocr"),
            write_chip(&chip.layout, &chip.placement),
        )
        .expect("chip");
        std::fs::write(
            dir.join("a.job"),
            write_jobs(&[JobSpec::new("alpha", "chip.ocr")]),
        )
        .expect("job");
        let mut intake = SpoolIntake::new(&dir, 1, false);
        let batch = intake.poll(true).expect("scan");
        assert_eq!(batch.len(), 1);
        assert!(
            dir.join("a.job").exists(),
            "the file survives until the engine acknowledges the batch"
        );
        intake.ack();
        assert!(!dir.join("a.job").exists(), "ack consumes the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_alongside_pending_jobs_still_closes_the_intake() {
        use crate::Intake;
        let dir = scratch("stopbatch");
        let chip = ocr_gen::random::small_random(4, 2, 3, 8, 7);
        std::fs::write(
            dir.join("chip.ocr"),
            write_chip(&chip.layout, &chip.placement),
        )
        .expect("chip");
        std::fs::write(
            dir.join("a.job"),
            write_jobs(&[JobSpec::new("alpha", "chip.ocr")]),
        )
        .expect("job");
        std::fs::write(dir.join("stop"), "").expect("stop");
        let mut intake = SpoolIntake::new(&dir, 1, false);
        let batch = intake
            .poll(true)
            .expect("jobs scanned with the sentinel are delivered");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].spec.name, "alpha");
        assert!(
            intake.poll(true).is_none(),
            "the consumed sentinel must still close the intake"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_sentinel_interrupts_a_long_idle_sleep() {
        use crate::Intake;
        let dir = scratch("promptstop");
        // A poll interval far beyond the test's patience: shutdown
        // latency must not depend on it.
        let mut intake = SpoolIntake::new(&dir, 60_000, false);
        assert!(intake.poll(true).is_some(), "first scan");
        let sentinel = dir.join("stop");
        let writer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            std::fs::write(&sentinel, "").expect("stop sentinel");
        });
        let started = std::time::Instant::now();
        let closed = intake.poll(true);
        writer.join().expect("writer thread");
        assert!(closed.is_none(), "the sentinel closes the intake");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "stop must interrupt the idle sleep promptly, not after \
             poll_ms ({}ms elapsed)",
            started.elapsed().as_millis()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_mode_closes_after_one_scan() {
        use crate::Intake;
        let dir = scratch("drain");
        let mut intake = SpoolIntake::new(&dir, 1, true);
        assert!(intake.poll(true).is_some());
        assert!(intake.poll(true).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
