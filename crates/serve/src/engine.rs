//! The deterministic round-based scheduler (see the crate docs for the
//! model). Everything the engine logs or returns is a pure function of
//! (job set, budgets): step counts, never wall clock.

use crate::journal::{JobJournal, RecoveredJob};
use crate::{record_of, JobInput, JobStatus, LoadedChip, ServeConfig, ServeError};
use ocr_core::{resume_from_doc, CheckpointSpec, FlowOptions, FlowResult, RunSession};
use ocr_exec::{RunControl, TaskOutcome, TripReason};
use ocr_io::ckpt::parse_checkpoint;
use ocr_io::job::{valid_job_name, write_results, JobRecord, JobSpec};
use ocr_io::write_routes;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A source of arriving jobs. The engine polls it once per round (and
/// while idle); returning `None` closes the intake — the service then
/// drains its queue and stops.
///
/// `idle` is `true` when the engine has no queued work: a watching
/// intake may block (sleep between directory scans) only then, and must
/// return promptly — with an empty batch if nothing arrived — when the
/// engine has jobs to run.
pub trait Intake {
    /// The next batch of submissions, or `None` once closed.
    fn poll(&mut self, idle: bool) -> Option<Vec<JobInput>>;

    /// Called once the engine has durably accepted the last polled
    /// batch (journaled and fsynced). An intake backed by consumable
    /// sources (spool files) deletes them here, so a crash between
    /// poll and acknowledge redelivers the batch instead of losing
    /// it. The default does nothing.
    fn ack(&mut self) {}

    /// Called when the engine's global step budget is exhausted: every
    /// job the intake delivers from here on is finalized unrun
    /// (`rejected`/`preempted`), so an admission-controlled intake —
    /// the network front-end — should start shedding new submissions
    /// with a typed `overload` rejection instead of accepting work the
    /// engine can no longer serve. The default does nothing.
    fn budget_exhausted(&mut self) {}
}

/// An intake with nothing to add: the engine runs exactly the jobs it
/// was handed and stops.
struct ClosedIntake;

impl Intake for ClosedIntake {
    fn poll(&mut self, _idle: bool) -> Option<Vec<JobInput>> {
        None
    }
}

/// The service's answer for one job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Flow the job asked for.
    pub flow: String,
    /// Typed terminal status.
    pub status: JobStatus,
    /// Deterministic steps charged across every slice.
    pub steps: u64,
    /// Nets routed in the final (possibly partial) design.
    pub routed: u64,
    /// Nets degraded in the final design.
    pub degraded: u64,
    /// Times the scheduler preempted the job to a checkpoint.
    pub preempts: u64,
    /// Failure / rejection detail; empty when there is nothing to add.
    pub detail: String,
    /// The routed design as `write_routes` text (absent for jobs that
    /// never produced one).
    pub routes: Option<String>,
    /// The job's `ocr-stats-v1` document (absent for jobs that never
    /// ran).
    pub stats: Option<String>,
}

impl JobReport {
    /// The job's `ocr-results-v1` record.
    pub fn record(&self) -> JobRecord {
        record_of(self)
    }
}

/// What one service run produced, in submission order.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Every job answered, in submission order.
    pub jobs: Vec<JobReport>,
    /// The deterministic admission log, one event per line, ending
    /// with the service summary line.
    pub log: Vec<String>,
    /// Steps charged across all jobs.
    pub total_steps: u64,
    /// Rounds the scheduler ran.
    pub rounds: u64,
}

impl ServeReport {
    /// The `ocr-results-v1` records, one per job *name* in submission
    /// order. `ocr-results-v1` keys records by name, so when a
    /// duplicate-name submission was rejected the first job's answer
    /// owns the record; the rejection itself is still visible in
    /// [`ServeReport::jobs`] and the log.
    pub fn records(&self) -> Vec<JobRecord> {
        let mut seen = std::collections::BTreeSet::new();
        self.jobs
            .iter()
            .filter(|j| seen.insert(j.name.as_str()))
            .map(record_of)
            .collect()
    }

    /// The final summary line of the log.
    pub fn summary(&self) -> &str {
        self.log.last().map(|s| s.as_str()).unwrap_or("")
    }
}

/// Runs a fixed job set to completion (a closed intake) — the
/// `--manifest`-without-`--spool` path and the natural embedded API.
///
/// # Errors
///
/// [`ServeError`] on unusable configuration or a service-file I/O
/// failure; per-job failures are statuses in the report, not errors.
pub fn run_jobs(jobs: Vec<JobInput>, config: &ServeConfig) -> Result<ServeReport, ServeError> {
    serve(jobs, &mut ClosedIntake, config)
}

/// Distinguishes scratch directories of concurrent engines in one
/// process (tests run several).
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// Runs the service: `initial` jobs first, then whatever `intake`
/// delivers, until the intake closes and the queue drains (or the
/// global step budget finalizes everything early).
///
/// # Errors
///
/// [`ServeError`] on unusable configuration or a service-file I/O
/// failure; per-job failures are statuses in the report, not errors.
pub fn serve(
    initial: Vec<JobInput>,
    intake: &mut dyn Intake,
    config: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    if config.max_concurrent == 0 {
        return Err(ServeError::Config(
            "max_concurrent must be at least 1".into(),
        ));
    }
    if config.quantum == 0 {
        return Err(ServeError::Config("quantum must be at least 1".into()));
    }
    let (out, scratch) = match &config.out {
        Some(dir) => (dir.clone(), false),
        None => {
            let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("ocr-serve-{}-{n}", std::process::id()));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&out).map_err(|e| ServeError::Io {
        path: out.clone(),
        message: e.to_string(),
    })?;
    let journal = match &config.journal {
        Some(dir) => {
            let (journal, recovered, warnings) = JobJournal::open(dir)?;
            Some((journal, recovered, warnings))
        }
        None => None,
    };
    let mut engine = Engine {
        config,
        out,
        persist: !scratch,
        states: Vec::new(),
        queue: Vec::new(),
        log: Vec::new(),
        used_steps: 0,
        rounds: 0,
        peak_queue: 0,
        journal: None,
        recovered: Vec::new(),
    };
    let result = match journal {
        Some((journal, recovered, warnings)) => {
            engine.journal = Some(journal);
            engine
                .recover(recovered, warnings)
                .and_then(|()| engine.run(initial, intake))
        }
        None => engine.run(initial, intake),
    };
    if scratch {
        let _ = std::fs::remove_dir_all(&engine.out);
    }
    result?;
    engine.finish_service()
}

/// Per-job scheduler state.
struct JobState {
    spec: JobSpec,
    /// A later submission reusing an earlier job's name. It is answered
    /// `rejected` in the report and log only — the first job owns the
    /// `out/<name>/` directory and the name's record in `results.txt`.
    duplicate: bool,
    loaded: Option<LoadedChip>,
    steps: u64,
    slices: u64,
    preempts: u64,
    ckpt_text: Option<String>,
    ckpt_path: PathBuf,
    /// The last (tripped) slice result — the partial answer a
    /// terminally preempted job is reported with.
    last: Option<FlowResult>,
    report: Option<JobReport>,
}

/// What one slice observed, returned through the isolated pool.
struct SliceOut {
    result: Result<FlowResult, String>,
    steps: u64,
    tripped: Option<TripReason>,
    ckpt_text: Option<String>,
}

/// One slice as handed to the pool (borrows the job's loaded chip).
struct SliceTask<'a> {
    name: String,
    loaded: &'a LoadedChip,
    salvage: bool,
    verify: bool,
    budget: u64,
    resumed: u64,
    resume_text: Option<String>,
    ckpt_path: PathBuf,
}

/// The slice budget for a job that has been preempted `preempts` times:
/// one quantum, doubled per preemption (capped), so a resumed search —
/// which re-charges the interrupted net's window attempts from scratch
/// — always eventually fits in one slice.
fn effective_quantum(quantum: u64, preempts: u64) -> u64 {
    quantum.saturating_mul(1u64 << preempts.min(20))
}

/// Runs one slice under its own `RunControl`. Panics unwind into the
/// pool's isolation (retried once, then `Poisoned`).
fn run_slice(task: &SliceTask<'_>) -> SliceOut {
    // Deterministic per-job fault site, so chaos plans can poison one
    // named job without racing on a global hit index.
    ocr_fault::point(&format!("serve.job.{}", task.name));
    let kind = task.loaded.kind;
    let mut resumed = task.resumed;
    let resume = match &task.resume_text {
        Some(text) => {
            let doc = match parse_checkpoint(&task.loaded.layout, text) {
                Ok(doc) => doc,
                Err(e) => {
                    return SliceOut {
                        result: Err(format!("checkpoint re-parse failed: {e}")),
                        steps: task.resumed,
                        tripped: None,
                        ckpt_text: None,
                    }
                }
            };
            // The checkpoint is the authority on progress: after a
            // crash the on-disk checkpoint can be *ahead* of the
            // journaled step count (the slice ran past its last
            // journaled preemption before dying). Resuming at the
            // checkpoint's own step count reproduces the uninterrupted
            // schedule; if it already overdraws this slice's budget the
            // control trips on its first poll and the slice re-emits
            // the identical preemption.
            resumed = doc.steps;
            match resume_from_doc(doc) {
                Ok(r) => Some(r),
                Err(e) => {
                    return SliceOut {
                        result: Err(format!("checkpoint resume failed: {e}")),
                        steps: task.resumed,
                        tripped: None,
                        ckpt_text: None,
                    }
                }
            }
        }
        None => None,
    };
    let control = RunControl::new()
        .with_step_budget(task.budget)
        .resumed_at(resumed);
    let session = RunSession {
        control: control.clone(),
        checkpoint: Some(CheckpointSpec {
            path: task.ckpt_path.clone(),
            every: 1,
            flow: kind.name().to_string(),
            chip_hash: task.loaded.chip_hash,
        }),
        resume,
    };
    let options = FlowOptions::new()
        .telemetry(true)
        .salvage(task.salvage)
        .verify(task.verify);
    let result = kind
        .build_with_ordering(options, task.loaded.ordering.clone())
        .run_controlled(&task.loaded.layout, &task.loaded.placement, &session)
        .map_err(|e| e.to_string());
    // The checkpoint the flow just wrote (final state, at the last
    // net-commit boundary) is what a later slice resumes from.
    let ckpt_text = std::fs::read_to_string(&task.ckpt_path).ok();
    SliceOut {
        result,
        steps: control.steps(),
        tripped: control.tripped(),
        ckpt_text,
    }
}

/// One journal-recovered job the engine still tracks for redelivery
/// deduplication: a submission arriving with a spec equal to an
/// unconsumed recovered one is the *same* job, redelivered by a source
/// the crash prevented from being acknowledged.
struct Recovered {
    spec: JobSpec,
    seq: usize,
    /// Journaled progress, applied when a redelivery supplies the chip.
    steps: u64,
    preempts: u64,
    /// Still waiting for a redelivery to supply the chip (the journal
    /// recorded no reload base).
    awaiting: bool,
    /// A redelivered submission already matched this entry.
    consumed: bool,
}

struct Engine<'a> {
    config: &'a ServeConfig,
    out: PathBuf,
    persist: bool,
    states: Vec<JobState>,
    queue: Vec<usize>,
    log: Vec<String>,
    used_steps: u64,
    rounds: u64,
    peak_queue: usize,
    journal: Option<JobJournal>,
    recovered: Vec<Recovered>,
}

impl Engine<'_> {
    fn run(&mut self, initial: Vec<JobInput>, intake: &mut dyn Intake) -> Result<(), ServeError> {
        self.enqueue(initial)?;
        let mut closed = false;
        loop {
            if !closed {
                match intake.poll(self.queue.is_empty()) {
                    None => closed = true,
                    Some(batch) => {
                        self.enqueue(batch)?;
                        // The batch is journaled and fsynced: the
                        // source may consume its files now.
                        intake.ack();
                    }
                }
            }
            if self.exhausted() {
                intake.budget_exhausted();
                self.finalize_queue()?;
            }
            if self.queue.is_empty() {
                if closed {
                    self.resolve_awaiting()?;
                    return Ok(());
                }
                continue;
            }
            self.round()?;
        }
    }

    /// Answers every recovered job still waiting for a redelivered
    /// chip once the intake has closed — nothing can supply it now,
    /// and every accepted job must be answered.
    fn resolve_awaiting(&mut self) -> Result<(), ServeError> {
        let waiting: Vec<usize> = self
            .recovered
            .iter()
            .filter(|r| r.awaiting && !r.consumed)
            .map(|r| r.seq)
            .collect();
        for seq in waiting {
            if self.states[seq].report.is_none() {
                self.reject(
                    seq,
                    "recovered from the journal but its chip was never redelivered".to_string(),
                )?;
            }
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.sync()?;
        }
        Ok(())
    }

    /// Rebuilds scheduler state from the replayed journal: terminal
    /// jobs with intact answers are adopted as-is, everything else is
    /// requeued — preempted jobs from their checkpoints, jobs whose
    /// answers the crash tore from scratch or their last checkpoint.
    fn recover(
        &mut self,
        recovered: Vec<RecoveredJob>,
        warnings: Vec<String>,
    ) -> Result<(), ServeError> {
        self.log.extend(warnings);
        for job in recovered {
            let seq = self.states.len();
            let duplicate = self.states.iter().any(|s| s.spec.name == job.spec.name);
            let ckpt_path = job
                .ckpt
                .clone()
                .unwrap_or_else(|| self.out.join(&job.spec.name).join("job.ckpt"));
            self.states.push(JobState {
                spec: job.spec.clone(),
                duplicate,
                loaded: None,
                steps: 0,
                slices: 0,
                preempts: 0,
                ckpt_text: None,
                ckpt_path,
                last: None,
                report: None,
            });
            self.recovered.push(Recovered {
                spec: job.spec.clone(),
                seq,
                steps: job.steps,
                preempts: job.preempts,
                awaiting: false,
                consumed: false,
            });
            match &job.end {
                Some(record) if self.trusted(seq, record) => self.adopt(seq, record),
                end => {
                    if let Some(record) = end {
                        self.log.push(format!(
                            "recover {}: journaled {} but its answer files are missing; \
                             re-running",
                            job.spec.name, record.status
                        ));
                    }
                    if self.states[seq].duplicate {
                        self.reject(seq, "duplicate job name".to_string())?;
                    } else {
                        match &job.base {
                            Some(base) => {
                                let input = crate::intake::load_job(job.spec.clone(), base);
                                self.attach_load(seq, input, job.steps, job.preempts)?;
                            }
                            None => {
                                // Nothing on record to reload the chip
                                // from: hold the seat until the source
                                // redelivers it (or the intake closes).
                                self.recovered[seq].awaiting = true;
                                self.log.push(format!(
                                    "recover {}: waiting for its chip to be redelivered",
                                    job.spec.name
                                ));
                            }
                        }
                    }
                }
            }
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.sync()?;
        }
        Ok(())
    }

    /// `true` when a journaled terminal record can be adopted without
    /// re-running the job: its answer files (written *before* the `end`
    /// record) are present and agree with it. Rejections never produced
    /// answers, so the record alone is the answer.
    fn trusted(&self, seq: usize, record: &JobRecord) -> bool {
        if record.status == JobStatus::Rejected.name() {
            return true;
        }
        let s = &self.states[seq];
        if s.duplicate || !self.persist || !valid_job_name(&s.spec.name) {
            return true;
        }
        let dir = self.out.join(&s.spec.name);
        let status = match std::fs::read_to_string(dir.join("status")) {
            Ok(text) => text,
            Err(_) => return false,
        };
        if status.split_whitespace().next() != Some(record.status.as_str()) {
            return false;
        }
        let answered =
            record.status == JobStatus::Done.name() || record.status == JobStatus::Salvaged.name();
        !answered || dir.join("routes.txt").exists()
    }

    /// Adopts a trusted journaled terminal record: the job keeps its
    /// on-disk answers and is reported without re-running.
    fn adopt(&mut self, seq: usize, record: &JobRecord) {
        let status = JobStatus::from_name(&record.status).unwrap_or(JobStatus::Failed);
        self.used_steps += record.steps;
        let s = &mut self.states[seq];
        s.steps = record.steps;
        s.preempts = record.preempts;
        let report = JobReport {
            name: s.spec.name.clone(),
            flow: s.spec.flow.clone(),
            status,
            steps: record.steps,
            routed: record.routed,
            degraded: record.degraded,
            preempts: record.preempts,
            detail: record.detail.clone(),
            routes: None,
            stats: None,
        };
        s.report = Some(report);
        self.log
            .push(format!("recover {}: {status} (journaled)", record.name));
    }

    /// Installs a (re)loaded chip on a recovered job and requeues it,
    /// resuming from its last committed checkpoint when one survives.
    fn attach_load(
        &mut self,
        seq: usize,
        input: JobInput,
        steps: u64,
        preempts: u64,
    ) -> Result<(), ServeError> {
        let loaded = match input.load {
            Err(reason) => return self.reject(seq, reason),
            Ok(loaded) => loaded,
        };
        let name = self.states[seq].spec.name.clone();
        let mut steps = steps;
        let mut preempts = preempts;
        let mut ckpt_text = None;
        if preempts > 0 {
            let path = self.states[seq].ckpt_path.clone();
            match std::fs::read_to_string(&path) {
                Ok(text) => match parse_checkpoint(&loaded.layout, &text) {
                    Ok(_) => ckpt_text = Some(text),
                    Err(e) => self.log.push(format!(
                        "recover {name}: checkpoint unusable ({e}); restarting from scratch"
                    )),
                },
                Err(e) => self.log.push(format!(
                    "recover {name}: checkpoint unreadable ({e}); restarting from scratch"
                )),
            }
            if ckpt_text.is_none() {
                steps = 0;
                preempts = 0;
            }
        }
        self.used_steps += steps;
        let s = &mut self.states[seq];
        s.loaded = Some(loaded);
        s.ckpt_text = ckpt_text;
        s.steps = steps;
        s.preempts = preempts;
        // Mirrors the uninterrupted run's slice count at this point, so
        // the admit/resume log split and a later global-budget drain
        // settle the job exactly as they would have.
        s.slices = preempts;
        ocr_obs::count("recover.jobs_resumed", 1);
        if preempts > 0 {
            self.log.push(format!(
                "recover {name}: resuming at {steps} steps after {preempts} preempt(s)"
            ));
        } else {
            self.log.push(format!("recover {name}: restarting"));
        }
        self.queue.push(seq);
        Ok(())
    }

    /// `true` once the global step budget has drained.
    fn exhausted(&self) -> bool {
        self.config
            .max_total_steps
            .is_some_and(|total| self.used_steps >= total)
    }

    fn enqueue(&mut self, batch: Vec<JobInput>) -> Result<(), ServeError> {
        let journaling = self.journal.is_some() && !batch.is_empty();
        for input in batch {
            // A submission spec-equal to an unconsumed recovered job is
            // that job, redelivered by a source the crash prevented from
            // being acknowledged — not a new (duplicate) submission.
            if let Some(pos) = self
                .recovered
                .iter()
                .position(|r| !r.consumed && r.spec == input.spec)
            {
                let r = &mut self.recovered[pos];
                r.consumed = true;
                let (seq, steps, preempts, awaiting) = (r.seq, r.steps, r.preempts, r.awaiting);
                if awaiting && self.states[seq].report.is_none() {
                    self.log
                        .push(format!("recover {}: chip redelivered", input.spec.name));
                    self.attach_load(seq, input, steps, preempts)?;
                }
                continue;
            }
            let seq = self.states.len();
            let duplicate = self.states.iter().any(|s| s.spec.name == input.spec.name);
            let ckpt_path = self.out.join(&input.spec.name).join("job.ckpt");
            self.states.push(JobState {
                spec: input.spec,
                duplicate,
                loaded: None,
                steps: 0,
                slices: 0,
                preempts: 0,
                ckpt_text: None,
                ckpt_path,
                last: None,
                report: None,
            });
            if let Some(journal) = self.journal.as_mut() {
                let s = &self.states[seq];
                journal.accept(seq, &s.spec, input.base.as_deref())?;
            }
            if duplicate {
                self.reject(seq, "duplicate job name".to_string())?;
                continue;
            }
            match input.load {
                Err(reason) => self.reject(seq, reason)?,
                Ok(_) if self.exhausted() => {
                    self.reject(seq, "global step budget exhausted".to_string())?;
                }
                Ok(loaded) => {
                    self.states[seq].loaded = Some(loaded);
                    self.queue.push(seq);
                }
            }
        }
        if journaling {
            if let Some(journal) = self.journal.as_mut() {
                journal.sync()?;
            }
            // Accepts are durable; the run loop acknowledges the intake
            // next. A kill here redelivers the batch on restart, where
            // redelivery dedup recognizes every job.
            ocr_fault::point("serve.kill.accept");
        }
        Ok(())
    }

    /// One barrier round: sort, admit under the global budget, run the
    /// batch isolated on the pool, then settle outcomes in queue order.
    fn round(&mut self) -> Result<(), ServeError> {
        ocr_fault::point("serve.kill.round");
        self.rounds += 1;
        let round = self.rounds;
        ocr_obs::count("serve.rounds", 1);
        ocr_obs::count_max("serve.queue.depth", self.queue.len() as u64);
        self.peak_queue = self.peak_queue.max(self.queue.len());
        // Strict priority, then round-robin within a class, then
        // submission order: fully deterministic.
        let states = &self.states;
        self.queue.sort_by_key(|&i| {
            (
                std::cmp::Reverse(states[i].spec.priority),
                states[i].slices,
                i,
            )
        });
        // Admission: grant slices while the global budget has headroom.
        let mut batch: Vec<usize> = Vec::new();
        let mut budgets: Vec<u64> = Vec::new();
        let mut planned: u64 = 0;
        for &i in &self.queue {
            if batch.len() >= self.config.max_concurrent {
                break;
            }
            let s = &self.states[i];
            let mut alloc = effective_quantum(self.config.quantum, s.preempts);
            if let Some(total) = self.config.max_total_steps {
                let remaining = total
                    .saturating_sub(self.used_steps)
                    .saturating_sub(planned);
                if remaining == 0 {
                    break;
                }
                alloc = alloc.min(remaining);
            }
            let mut budget = s.steps.saturating_add(alloc);
            if let Some(cap) = s.spec.max_steps {
                budget = budget.min(cap);
            }
            planned += budget.saturating_sub(s.steps);
            batch.push(i);
            budgets.push(budget);
        }
        if batch.is_empty() {
            // No headroom for anyone: the budget is as good as drained.
            return self.finalize_queue();
        }
        self.queue.retain(|i| !batch.contains(i));
        for (&i, &budget) in batch.iter().zip(&budgets) {
            let s = &self.states[i];
            let slice = budget.saturating_sub(s.steps);
            if s.slices == 0 {
                ocr_obs::count("serve.jobs.admitted", 1);
                self.log.push(format!(
                    "round {round}: admit {} slice {slice} (priority {})",
                    s.spec.name, s.spec.priority
                ));
                if let Some(journal) = self.journal.as_mut() {
                    journal.start(i)?;
                }
                self.ensure_job_dir(i)?;
            } else {
                ocr_obs::count("serve.jobs.resumed", 1);
                self.log.push(format!(
                    "round {round}: resume {} slice {slice} at {} steps",
                    s.spec.name, s.steps
                ));
            }
        }
        let tasks: Vec<SliceTask<'_>> = batch
            .iter()
            .zip(&budgets)
            .map(|(&i, &budget)| {
                let s = &self.states[i];
                let loaded = s.loaded.as_ref().expect("queued jobs are loaded");
                SliceTask {
                    name: s.spec.name.clone(),
                    loaded,
                    salvage: s.spec.salvage,
                    verify: s.spec.verify,
                    budget,
                    resumed: s.steps,
                    resume_text: s.ckpt_text.clone(),
                    ckpt_path: s.ckpt_path.clone(),
                }
            })
            .collect();
        let outcomes = ocr_exec::parallel_map_isolated(&tasks, run_slice);
        drop(tasks);
        // The slices ran (checkpoints may be ahead on disk) but nothing
        // is settled or journaled yet — the canonical torn-round kill.
        ocr_fault::point("serve.kill.settle");
        for ((&i, &budget), outcome) in batch.iter().zip(&budgets).zip(outcomes) {
            match outcome {
                TaskOutcome::Poisoned { message } => {
                    // The slice's control died with the task, so its
                    // charges are unknowable; the job is answered as
                    // failed and the daemon (and its siblings) move on.
                    self.finish(i, JobStatus::Failed, format!("poisoned: {message}"), None)?;
                }
                TaskOutcome::Done { value, .. } => {
                    let delta = value.steps.saturating_sub(self.states[i].steps);
                    self.used_steps += delta;
                    self.states[i].steps = value.steps;
                    self.states[i].slices += 1;
                    match value.result {
                        Err(message) => {
                            self.finish(i, JobStatus::Failed, message, None)?;
                        }
                        Ok(result) => {
                            let s = &self.states[i];
                            let own_cap_hit =
                                s.spec.max_steps.is_some_and(|cap| value.steps >= cap);
                            let sliced = s.spec.max_steps.is_none_or(|cap| budget < cap);
                            if value.tripped == Some(TripReason::BudgetExceeded)
                                && sliced
                                && !own_cap_hit
                            {
                                // Preempted at the slice boundary: keep
                                // the checkpoint, requeue for resume.
                                match value.ckpt_text {
                                    Some(text) => {
                                        ocr_obs::count("serve.preemptions", 1);
                                        let s = &mut self.states[i];
                                        s.ckpt_text = Some(text);
                                        s.preempts += 1;
                                        s.last = Some(result);
                                        self.log.push(format!(
                                            "round {round}: preempt {} at {} steps",
                                            self.states[i].spec.name, value.steps
                                        ));
                                        if let Some(journal) = self.journal.as_mut() {
                                            let s = &self.states[i];
                                            journal.preempt(
                                                i,
                                                s.steps,
                                                s.preempts,
                                                &s.ckpt_path,
                                            )?;
                                        }
                                        self.queue.push(i);
                                    }
                                    None => {
                                        self.finish(
                                            i,
                                            JobStatus::Failed,
                                            "preempted but its checkpoint is unreadable".into(),
                                            None,
                                        )?;
                                    }
                                }
                            } else {
                                self.finish_with_result(i, result)?;
                            }
                        }
                    }
                }
            }
        }
        if let Some(journal) = self.journal.as_mut() {
            // The round's settlement — preemptions and terminal records
            // — commits as one durable unit at the barrier.
            journal.sync()?;
        }
        Ok(())
    }

    /// Terminal settlement of a completed slice (ran to the end, or to
    /// the job's *own* step cap — both are full answers).
    fn finish_with_result(&mut self, i: usize, result: FlowResult) -> Result<(), ServeError> {
        let (status, detail) = settle(&result);
        self.finish(i, status, detail, Some(result))
    }

    /// Records a terminal status, logs it, bumps counters, and writes
    /// the per-job answer files when a results directory is configured.
    fn finish(
        &mut self,
        i: usize,
        status: JobStatus,
        detail: String,
        result: Option<FlowResult>,
    ) -> Result<(), ServeError> {
        let s = &self.states[i];
        let answer = result.as_ref().or(s.last.as_ref());
        let routed = answer.map_or(0, |r| {
            r.design
                .routes
                .iter()
                .filter(|route| route.is_some())
                .count() as u64
        });
        let degraded = answer.map_or(0, |r| {
            r.degradation.as_ref().map_or(0, |d| d.nets.len()) as u64
        });
        let routes = answer.map(|r| write_routes(&r.layout, &r.design));
        let stats = answer.and_then(|r| {
            r.telemetry
                .as_ref()
                .map(|t| ocr_obs::stats_json(&[(s.spec.name.as_str(), flow_label(s), t)]))
        });
        let report = JobReport {
            name: s.spec.name.clone(),
            flow: s.spec.flow.clone(),
            status,
            steps: s.steps,
            routed,
            degraded,
            preempts: s.preempts,
            detail,
            routes,
            stats,
        };
        ocr_obs::count(
            match status {
                JobStatus::Done => "serve.jobs.done",
                JobStatus::Salvaged => "serve.jobs.salvaged",
                JobStatus::Preempted => "serve.jobs.preempted",
                JobStatus::Rejected => "serve.jobs.rejected",
                JobStatus::Failed => "serve.jobs.failed",
            },
            1,
        );
        let line = match status {
            JobStatus::Rejected => format!("reject {}: {}", report.name, report.detail),
            _ => {
                let mut line = format!(
                    "round {}: finish {} {status} steps {} routed {} degraded {}",
                    self.rounds, report.name, report.steps, report.routed, report.degraded
                );
                if !report.detail.is_empty() {
                    line.push_str(&format!(" ({})", report.detail));
                }
                line
            }
        };
        self.log.push(line);
        if !self.states[i].duplicate {
            self.write_job_files(&report)?;
        }
        // Answer files first, then the terminal record: a journaled
        // `end` always has its answers on disk. A kill in between
        // re-runs the job deterministically on restart.
        ocr_fault::point("serve.kill.finish");
        if let Some(journal) = self.journal.as_mut() {
            journal.end(i, &record_of(&report))?;
        }
        self.states[i].last = None;
        self.states[i].report = Some(report);
        Ok(())
    }

    fn reject(&mut self, i: usize, reason: String) -> Result<(), ServeError> {
        self.finish(i, JobStatus::Rejected, reason, None)
    }

    /// The global budget drained: running checkpointed jobs end
    /// `preempted` (their partial design is the answer), jobs that
    /// never got a slice end `rejected`.
    fn finalize_queue(&mut self) -> Result<(), ServeError> {
        let queue = std::mem::take(&mut self.queue);
        let drained = !queue.is_empty();
        for i in queue {
            if self.states[i].slices > 0 {
                self.finish(
                    i,
                    JobStatus::Preempted,
                    "global step budget exhausted".into(),
                    None,
                )?;
            } else {
                self.reject(i, "global step budget exhausted".to_string())?;
            }
        }
        if drained {
            if let Some(journal) = self.journal.as_mut() {
                journal.sync()?;
            }
        }
        Ok(())
    }

    fn ensure_job_dir(&self, i: usize) -> Result<(), ServeError> {
        let dir = self.out.join(&self.states[i].spec.name);
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })
    }

    fn write_job_files(&self, report: &JobReport) -> Result<(), ServeError> {
        if !self.persist || !valid_job_name(&report.name) {
            return Ok(());
        }
        let dir = self.out.join(&report.name);
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        let mut status = report.status.name().to_string();
        if !report.detail.is_empty() {
            status.push(' ');
            status.push_str(&report.detail);
        }
        status.push('\n');
        // Answers first, `status` last: each write is atomic, so a
        // crash can tear *between* files but never inside one, and a
        // `status` that exists always points at complete answers.
        if let Some(routes) = &report.routes {
            durable_write(&dir.join("routes.txt"), routes)?;
        }
        if let Some(stats) = &report.stats {
            durable_write(&dir.join("stats.json"), stats)?;
        }
        durable_write(&dir.join("status"), &status)
    }

    /// Appends the summary line and writes the service-level files.
    fn finish_service(mut self) -> Result<ServeReport, ServeError> {
        let jobs: Vec<JobReport> = self
            .states
            .into_iter()
            .map(|s| s.report.expect("every submitted job is answered"))
            .collect();
        let count = |status: JobStatus| jobs.iter().filter(|j| j.status == status).count();
        let admitted = jobs
            .iter()
            .filter(|j| j.status != JobStatus::Rejected)
            .count();
        let resumed: u64 = jobs.iter().map(|j| j.preempts).sum();
        self.log.push(format!(
            "serve: jobs {} admitted {admitted} preemptions {resumed} rejected {} \
             done {} salvaged {} preempted {} failed {} steps {} rounds {} peak-queue {}",
            jobs.len(),
            count(JobStatus::Rejected),
            count(JobStatus::Done),
            count(JobStatus::Salvaged),
            count(JobStatus::Preempted),
            count(JobStatus::Failed),
            self.used_steps,
            self.rounds,
            self.peak_queue
        ));
        let report = ServeReport {
            jobs,
            log: self.log,
            total_steps: self.used_steps,
            rounds: self.rounds,
        };
        if let Some(journal) = self.journal.as_mut() {
            journal.sync()?;
        }
        // Everything is settled and journaled; only the service-level
        // summary files remain. A kill here loses nothing a restart
        // cannot republish from the journal.
        ocr_fault::point("serve.kill.final");
        if self.persist {
            let mut log_text = report.log.join("\n");
            log_text.push('\n');
            durable_write(&self.out.join("serve.log"), &log_text)?;
            durable_write(
                &self.out.join("results.txt"),
                &write_results(&report.records()),
            )?;
        }
        Ok(report)
    }
}

/// A durable service-file write: atomic (temp + fsync + rename), with
/// bounded retries around the injectable `answers.write` fault site.
fn durable_write(path: &std::path::Path, text: &str) -> Result<(), ServeError> {
    ocr_io::retry_io(|| {
        if ocr_fault::point("answers.write") {
            return Err(std::io::Error::other("injected transient write failure"));
        }
        ocr_io::atomic_write(path, text)
    })
    .map_err(|e| ServeError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

/// The terminal status of a completed run as the `ocr-verify` oracle
/// judges it ([`FlowResult::oracle_report`]: the job's own report when
/// it asked for `verify`, otherwise one oracle run): `Failed` on any
/// violation, else `Salvaged` when nets were degraded, else `Done`.
fn settle(result: &FlowResult) -> (JobStatus, String) {
    let report = result.oracle_report();
    if let Some(first) = report.violations.first() {
        let n = report.violations.len();
        (
            JobStatus::Failed,
            format!("{n} verification violation(s) (first: {first})"),
        )
    } else if result
        .degradation
        .as_ref()
        .is_some_and(|d| !d.nets.is_empty())
    {
        (JobStatus::Salvaged, String::new())
    } else {
        (JobStatus::Done, String::new())
    }
}

fn flow_label(state: &JobState) -> &str {
    state
        .loaded
        .as_ref()
        .map(|l| l.kind.name())
        .unwrap_or(state.spec.flow.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_quantum_doubles_and_saturates() {
        assert_eq!(effective_quantum(8, 0), 8);
        assert_eq!(effective_quantum(8, 1), 16);
        assert_eq!(effective_quantum(8, 3), 64);
        assert_eq!(effective_quantum(u64::MAX, 5), u64::MAX);
        assert_eq!(effective_quantum(8, 64), 8 << 20, "doubling is capped");
    }

    #[test]
    fn bad_config_is_a_service_error() {
        let cfg = ServeConfig {
            max_concurrent: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            run_jobs(Vec::new(), &cfg),
            Err(ServeError::Config(_))
        ));
        let cfg = ServeConfig {
            quantum: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            run_jobs(Vec::new(), &cfg),
            Err(ServeError::Config(_))
        ));
    }

    /// A one-net result whose metal1 wire runs from the first pin at
    /// x = 10 to `reach`; the second pin sits at x = 90.
    fn one_net_result(reach: ocr_geom::Coord) -> FlowResult {
        use ocr_geom::{Layer, Point, Rect};
        use ocr_netlist::{Layout, NetClass, NetRoute, RouteMetrics, RouteSeg, RoutedDesign};
        let mut layout = Layout::new(Rect::new(0, 0, 100, 100));
        let net = layout.add_net("a", NetClass::Signal);
        layout.add_pin(net, None, Point::new(10, 10), Layer::Metal1);
        layout.add_pin(net, None, Point::new(90, 10), Layer::Metal1);
        let mut design = RoutedDesign::new(layout.die, 1);
        let mut route = NetRoute::new();
        route.segs.push(RouteSeg::new(
            Point::new(10, 10),
            Point::new(reach, 10),
            Layer::Metal1,
        ));
        design.set_route(net, route);
        FlowResult {
            metrics: RouteMetrics::of(&design, &layout),
            design,
            layout,
            placement: ocr_netlist::RowPlacement::new(Vec::new(), 0, 0),
            stats: None,
            channel_tracks: Vec::new(),
            channel_heights: Vec::new(),
            level_a_nets: Vec::new(),
            level_b_nets: vec![net],
            verify: None,
            telemetry: None,
            degradation: None,
        }
    }

    #[test]
    fn settlement_fails_an_open_net_with_the_oracle_detail() {
        let (status, detail) = settle(&one_net_result(50));
        assert_eq!(status, JobStatus::Failed);
        assert_eq!(
            detail,
            "1 verification violation(s) (first: net#0: open (2 disjoint components))"
        );
        assert_eq!(
            settle(&one_net_result(90)),
            (JobStatus::Done, String::new())
        );
    }

    #[test]
    fn settlement_reuses_the_flow_verify_report() {
        // An attached report is the verdict: the oracle does not rerun.
        let mut open = one_net_result(50);
        open.verify = Some(ocr_verify::VerifyReport::default());
        assert_eq!(settle(&open).0, JobStatus::Done);
    }

    #[test]
    fn empty_job_set_produces_an_empty_summary() {
        let report = run_jobs(Vec::new(), &ServeConfig::default()).expect("serves");
        assert!(report.jobs.is_empty());
        assert_eq!(report.rounds, 0);
        assert!(report.summary().starts_with("serve: jobs 0"));
    }
}
