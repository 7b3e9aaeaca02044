//! Malformed-input fuzzing (seeded, in-tree PRNG): `parse_chip` and
//! `parse_routes` must return `Ok` or a `ParseError` on every mutated
//! input — a panic is never acceptable on external text.

use overcell_router::core::{FlowKind, FlowOptions};
use overcell_router::fault::corrupt_text;
use overcell_router::gen::random::small_random;
use overcell_router::io::{parse_chip, parse_routes, write_chip, write_routes};
use std::panic::{catch_unwind, AssertUnwindSafe};

const TRIALS: usize = 6_000;

#[test]
fn parse_chip_never_panics_on_mutated_inputs() {
    let chip = small_random(8, 3, 4, 16, 42);
    let base = write_chip(&chip.layout, &chip.placement);
    for i in 0..TRIALS {
        let seed = 0x5eed ^ i as u64;
        let mutated = corrupt_text(&base, seed, 1 + i % 32);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_chip(&mutated);
        }));
        assert!(
            outcome.is_ok(),
            "parse_chip panicked on mutation seed {seed} (input: {:?}…)",
            mutated.chars().take(200).collect::<String>()
        );
    }
}

#[test]
fn parse_routes_never_panics_on_mutated_inputs() {
    let chip = small_random(6, 2, 3, 10, 42);
    let result = FlowKind::OverCell
        .build_with(FlowOptions::default())
        .run(&chip.layout, &chip.placement)
        .expect("flow");
    let base = write_routes(&result.layout, &result.design);
    for i in 0..TRIALS {
        let seed = 0x0c0ffee ^ i as u64;
        let mutated = corrupt_text(&base, seed, 1 + i % 32);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_routes(&result.layout, &mutated);
        }));
        assert!(
            outcome.is_ok(),
            "parse_routes panicked on mutation seed {seed} (input: {:?}…)",
            mutated.chars().take(200).collect::<String>()
        );
    }
}

#[test]
fn valid_round_trips_survive_the_fuzz_fixture() {
    // Sanity: the fuzz bases themselves are valid and round-trip, so
    // the corpus mutates real documents rather than junk.
    let chip = small_random(8, 3, 4, 16, 42);
    let base = write_chip(&chip.layout, &chip.placement);
    let (l2, p2) = parse_chip(&base).expect("base chip parses");
    assert_eq!(write_chip(&l2, &p2), base);
}

#[test]
fn parse_jobs_never_panics_on_mutated_inputs() {
    // The fuzz base exercises the whole `ocr-jobs-v1` grammar: every
    // per-job option, negative priority, comments.
    use overcell_router::io::job::{parse_jobs, write_jobs, JobSpec};

    let mut a = JobSpec::new("alpha", "chips/a.ocr");
    a.flow = "channel3".into();
    a.priority = -4;
    a.max_steps = Some(9_000);
    a.salvage = true;
    a.verify = true;
    let b = JobSpec::new("beta.2", "b.ocr");
    let base = format!("# spooled batch\n{}", write_jobs(&[a, b]));
    parse_jobs(&base).expect("base jobs document parses");
    for i in 0..TRIALS {
        let seed = 0x10b5 ^ i as u64;
        let mutated = corrupt_text(&base, seed, 1 + i % 32);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_jobs(&mutated);
        }));
        assert!(
            outcome.is_ok(),
            "parse_jobs panicked on mutation seed {seed} (input: {:?}…)",
            mutated.chars().take(200).collect::<String>()
        );
    }
}

#[test]
fn parse_results_never_panics_on_mutated_inputs() {
    use overcell_router::io::job::{parse_results, write_results, JobRecord};

    let records = vec![
        JobRecord {
            name: "alpha".into(),
            status: "done".into(),
            steps: 203,
            routed: 123,
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
            detail: "poisoned: injected fault".into(),
        },
    ];
    let base = write_results(&records);
    parse_results(&base).expect("base results document parses");
    for i in 0..TRIALS {
        let seed = 0x4e5 ^ i as u64;
        let mutated = corrupt_text(&base, seed, 1 + i % 32);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_results(&mutated);
        }));
        assert!(
            outcome.is_ok(),
            "parse_results panicked on mutation seed {seed} (input: {:?}…)",
            mutated.chars().take(200).collect::<String>()
        );
    }
}

#[test]
fn weights_specs_never_panic_and_never_smuggle_non_finite_weights() {
    // `--weights` specs come from the command line, so the parser gets
    // the same treatment as the file grammars: every mutation of a
    // valid spec must parse or return a typed error — never panic —
    // and every *accepted* spec must survive validation (no NaN or
    // infinity sneaking into the cost function through creative
    // spellings like `w1=nan` or `w21=-inf`).
    use overcell_router::core::CostWeights;

    let base = "w1=2.5,w21=0.75,w22=1,w23=0.5,w24=0.25,radius=5";
    CostWeights::parse(base).expect("base weights spec parses");
    for i in 0..TRIALS {
        let seed = 0x3e16e75 ^ i as u64;
        let mutated = corrupt_text(base, seed, 1 + i % 8);
        let outcome = catch_unwind(AssertUnwindSafe(|| CostWeights::parse(&mutated)));
        match outcome {
            Ok(Ok(w)) => assert_eq!(
                w.validate(),
                Ok(()),
                "accepted spec produced invalid weights (seed {seed}, input {mutated:?})"
            ),
            Ok(Err(_)) => {}
            Err(_) => {
                panic!("CostWeights::parse panicked on mutation seed {seed} (input {mutated:?})")
            }
        }
    }
}

#[test]
fn parse_checkpoint_never_panics_on_mutated_inputs() {
    // The fuzz base is a *real* mid-run checkpoint — routed geometry,
    // failure reasons, pending queue, stats — so mutations hit every
    // section of the `ocr-ckpt-v1` grammar, not just the header.
    use overcell_router::core::{CheckpointSpec, RunSession};
    use overcell_router::exec::RunControl;
    use overcell_router::io::ckpt::{fnv1a_64, parse_checkpoint};

    let chip = small_random(6, 2, 3, 10, 42);
    let path = std::env::temp_dir().join(format!("ocr-malformed-ckpt-{}.ckpt", std::process::id()));
    let session = RunSession {
        control: RunControl::new().with_step_budget(6),
        checkpoint: Some(CheckpointSpec {
            path: path.clone(),
            every: 1,
            flow: FlowKind::OverCell.name().to_string(),
            chip_hash: fnv1a_64(&write_chip(&chip.layout, &chip.placement)),
        }),
        resume: None,
    };
    FlowKind::OverCell
        .build_with(FlowOptions::default())
        .run_controlled(&chip.layout, &chip.placement, &session)
        .expect("budgeted flow");
    let base = std::fs::read_to_string(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    assert!(
        base.lines().any(|l| l.starts_with("routed ")),
        "fixture must contain committed routes"
    );

    for i in 0..TRIALS {
        let seed = 0xc4e_c4e ^ i as u64;
        let mutated = corrupt_text(&base, seed, 1 + i % 32);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_checkpoint(&chip.layout, &mutated);
        }));
        assert!(
            outcome.is_ok(),
            "parse_checkpoint panicked on mutation seed {seed} (input: {:?}…)",
            mutated.chars().take(200).collect::<String>()
        );
    }
}

/// Writes a committed mid-run `ocr-ckpt-v1` checkpoint for a small
/// random chip and returns `(chip, checkpoint text)`. Shared by the
/// torn-file tests below.
fn committed_checkpoint(tag: &str) -> (overcell_router::gen::GeneratedChip, String) {
    use overcell_router::core::{CheckpointSpec, RunSession};
    use overcell_router::exec::RunControl;
    use overcell_router::io::ckpt::fnv1a_64;

    let chip = small_random(6, 2, 3, 10, 42);
    let path =
        std::env::temp_dir().join(format!("ocr-torn-ckpt-{tag}-{}.ckpt", std::process::id()));
    let session = RunSession {
        control: RunControl::new().with_step_budget(6),
        checkpoint: Some(CheckpointSpec {
            path: path.clone(),
            every: 1,
            flow: FlowKind::OverCell.name().to_string(),
            chip_hash: fnv1a_64(&write_chip(&chip.layout, &chip.placement)),
        }),
        resume: None,
    };
    FlowKind::OverCell
        .build_with(FlowOptions::default())
        .run_controlled(&chip.layout, &chip.placement, &session)
        .expect("budgeted flow");
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    assert!(
        text.lines().any(|l| l.starts_with("routed ")),
        "fixture must contain committed routes"
    );
    (chip, text)
}

#[test]
fn truncated_checkpoints_error_cleanly_at_every_byte_boundary() {
    // A crash can tear a checkpoint at any byte. Whatever prefix
    // survives, `parse_checkpoint` must return a typed `ParseError`
    // (or, when the cut lands exactly on a record boundary, a valid
    // shorter document) — never a panic. The `.ocr` family is ASCII,
    // so every byte boundary is a char boundary.
    use overcell_router::io::ckpt::parse_checkpoint;

    let (chip, base) = committed_checkpoint("boundary");
    assert!(base.is_ascii(), "checkpoint text must be ASCII");
    let full = parse_checkpoint(&chip.layout, &base).expect("full checkpoint parses");

    let mut errors = 0usize;
    for cut in 0..base.len() {
        let torn = &base[..cut];
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_checkpoint(&chip.layout, torn)));
        let result = outcome.unwrap_or_else(|_| {
            panic!(
                "parse_checkpoint panicked at byte {cut} (tail: {:?})",
                &torn[torn.len().saturating_sub(80)..]
            )
        });
        if let Err(e) = result {
            errors += 1;
            let lines = torn.lines().count().max(1);
            assert!(
                e.line >= 1 && e.line <= lines,
                "error at byte {cut} points outside the document: {e}"
            );
            assert!(!e.message.is_empty(), "error at byte {cut} has no message");
        }
    }
    assert!(errors > 0, "some truncations must surface typed errors");
    assert_eq!(
        parse_checkpoint(&chip.layout, &base).expect("still parses"),
        full,
        "the untruncated document must stay valid"
    );
}

#[test]
fn resume_on_a_torn_checkpoint_reports_a_clean_diagnostic() {
    // `ocr route --resume torn.ckpt` must exit non-zero with an
    // `error:` diagnostic naming the checkpoint file — not a panic,
    // and not a silent resume from corrupt state.
    use overcell_router::io::ckpt::parse_checkpoint;

    let (chip, base) = committed_checkpoint("cli");
    // Deepest cut whose prefix no longer parses: a genuinely torn
    // final record, not a clean record boundary.
    let cut = (0..base.len())
        .rev()
        .find(|&cut| parse_checkpoint(&chip.layout, &base[..cut]).is_err())
        .expect("some prefix fails to parse");

    let dir = std::env::temp_dir().join(format!("ocr-torn-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let chip_path = dir.join("chip.ocr");
    let torn_path = dir.join("torn.ckpt");
    std::fs::write(&chip_path, write_chip(&chip.layout, &chip.placement)).expect("chip file");
    std::fs::write(&torn_path, &base[..cut]).expect("torn checkpoint");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ocr"))
        .arg("route")
        .arg(&chip_path)
        .arg("--resume")
        .arg(&torn_path)
        .output()
        .expect("run ocr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "resume from a torn checkpoint must fail (stderr: {stderr})"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("torn.ckpt"),
        "diagnostic must name the torn checkpoint: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "diagnostic must be a clean error, not a panic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A realistic multiline `ocr-wire-v1` submit frame for the fuzz
/// tests below: options on the job line, chip text in the payload.
fn wire_specimen() -> (String, Vec<u8>) {
    use overcell_router::io::job::JobSpec;
    use overcell_router::io::wire;

    let chip = small_random(6, 2, 3, 10, 42);
    let mut spec = JobSpec::new("fuzz", "-");
    spec.priority = 3;
    spec.salvage = true;
    spec.tenant = Some("acme".to_string());
    let payload = wire::submit_payload(&spec, &write_chip(&chip.layout, &chip.placement));
    let bytes = wire::frame(&payload);
    (payload, bytes)
}

#[test]
fn wire_frames_torn_at_every_byte_boundary_are_typed_errors() {
    use overcell_router::io::wire;

    let (payload, bytes) = wire_specimen();
    // The intact frame round-trips...
    assert_eq!(
        wire::read_frame(&mut &bytes[..], 1 << 20).expect("intact frame"),
        Some(payload)
    );
    // ...and every truncation is a clean EOF (cut 0) or a typed error
    // — torn mid-header, torn mid-payload, torn at the terminator —
    // never a panic.
    for cut in 0..bytes.len() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            wire::read_frame(&mut &bytes[..cut], 1 << 20)
        }));
        let result = outcome.unwrap_or_else(|_| panic!("read_frame panicked at cut {cut}"));
        if cut == 0 {
            assert!(
                matches!(result, Ok(None)),
                "cut 0 is a clean close: {result:?}"
            );
        } else {
            assert!(
                result.is_err(),
                "cut {cut} of {} must be a typed error: {result:?}",
                bytes.len()
            );
        }
    }
}

#[test]
fn wire_streams_torn_anywhere_in_the_magic_never_panic() {
    use overcell_router::io::wire;

    let (_, frame) = wire_specimen();
    let mut stream = Vec::new();
    wire::write_magic(&mut stream).expect("magic");
    stream.extend_from_slice(&frame);
    for cut in 0..stream.len() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut r = &stream[..cut];
            wire::read_magic(&mut r).and_then(|()| wire::read_frame(&mut r, 1 << 20))
        }));
        assert!(outcome.is_ok(), "torn stream panicked at cut {cut}");
    }
}

#[test]
fn oversized_and_absurd_wire_lengths_are_rejected_before_any_payload() {
    use overcell_router::io::wire::{self, WireError};

    // A length over the limit is rejected from the header alone — no
    // payload bytes exist to back it up, and none are needed.
    for header in [
        "f 65 0123456789abcdef\n",
        "f 1048576 0123456789abcdef\n",
        "f 18446744073709551615 0123456789abcdef\n",
    ] {
        match wire::read_frame(&mut header.as_bytes(), 64) {
            Err(WireError::Oversized { len, max: 64 }) => assert!(len > 64),
            other => panic!("{header:?}: expected oversized, got {other:?}"),
        }
    }
    // Lengths that do not even parse are bad headers, not crashes.
    for header in [
        "f 99999999999999999999 0123456789abcdef\n",
        "f -1 0123456789abcdef\n",
        "f abc 0123456789abcdef\n",
        "f 10 xyz\n",
        "f 10 0123456789abcdef0123\n",
        "frame 10 0123456789abcdef\n",
    ] {
        let result = wire::read_frame(&mut header.as_bytes(), 64);
        assert!(
            matches!(result, Err(WireError::BadHeader(_))),
            "{header:?}: {result:?}"
        );
    }
}

#[test]
fn corrupted_wire_frames_are_typed_errors_never_panics() {
    use overcell_router::io::wire;

    let (_, bytes) = wire_specimen();
    // Every single-bit corruption of any byte — header, checksum,
    // payload, terminators — yields a typed error: the checksum (or
    // the header grammar) catches it, and nothing panics.
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut mutated = bytes.clone();
            mutated[i] ^= bit;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                wire::read_frame(&mut &mutated[..], 1 << 20)
            }));
            let result =
                outcome.unwrap_or_else(|_| panic!("read_frame panicked at byte {i} bit {bit:#x}"));
            assert!(
                result.is_err(),
                "flip at byte {i} bit {bit:#x} must not pass validation: {result:?}"
            );
        }
    }
}

#[test]
fn mutated_wire_requests_are_typed_errors_never_panics() {
    use overcell_router::io::wire;

    let (payload, _) = wire_specimen();
    for i in 0..2_000 {
        let seed = 0x31ee ^ i as u64;
        let mutated = corrupt_text(&payload, seed, 1 + i % 16);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = wire::parse_request(&mutated);
        }));
        assert!(
            outcome.is_ok(),
            "parse_request panicked on mutation seed {seed}"
        );
    }
}

#[test]
fn audit_failures_are_rejected_alike_by_ocr_route_and_load_job() {
    // A chip that parses but fails its layout audit (a one-pin net) and
    // one that fails its placement audit (corridor margins the cells
    // intrude into) are refused by the one chip loader, with the same
    // `<path>: … audit failed: …` message on the CLI and in the serve
    // intake.
    use overcell_router::io::job::JobSpec;
    use overcell_router::netlist::NetClass;
    use overcell_router::serve::load_job;

    let chip = small_random(6, 2, 3, 10, 42);
    let mut one_pin = chip.layout.clone();
    let lonely = one_pin.add_net("lonely", NetClass::Signal);
    let at = one_pin.die.center();
    one_pin.add_pin(lonely, None, at, overcell_router::geom::Layer::Metal2);
    let mut squeezed = chip.placement.clone();
    squeezed.left_margin = chip.layout.die.width();

    let dir = std::env::temp_dir().join(format!("ocr-audit-reject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (file, text, audit) in [
        (
            "bad-layout.ocr",
            write_chip(&one_pin, &chip.placement),
            "layout audit failed: ",
        ),
        (
            "bad-placement.ocr",
            write_chip(&chip.layout, &squeezed),
            "placement audit failed: ",
        ),
    ] {
        parse_chip(&text).expect("the chip itself parses");
        let path = dir.join(file);
        std::fs::write(&path, &text).expect("chip file");
        let rejected = load_job(JobSpec::new("bad", file), &dir)
            .load
            .expect_err("load_job rejects the chip");
        assert!(
            rejected.starts_with(&format!("{}: {audit}", path.display())),
            "{rejected}"
        );
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ocr"))
            .arg("route")
            .arg(&path)
            .output()
            .expect("run ocr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{file}: ocr route must fail");
        assert!(
            stderr.contains(&format!("error: {rejected}")),
            "{file}: ocr route said {stderr}, load_job said {rejected}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_errors_are_pinned() {
    // Every `ocr-io` text parser's rejection, pinned to its exact line
    // and message: one row per malformed directive of the chip, routes,
    // checkpoint, jobs and results formats. The fuzz tests above only
    // prove that nothing panics; this table proves what is said.
    use overcell_router::io::ckpt::parse_checkpoint;
    use overcell_router::io::job::{parse_jobs, parse_results};
    use overcell_router::io::ParseError;

    let (layout, _) = parse_chip("die 0 0 100 100\nnet a signal\nnet b signal\n").expect("fixture");
    type Parser<'a> = &'a dyn Fn(&str) -> Result<(), ParseError>;
    let chip: Parser = &|t| parse_chip(t).map(drop);
    let routes: Parser = &|t| parse_routes(&layout, t).map(drop);
    let ckpt: Parser = &|t| parse_checkpoint(&layout, t).map(drop);
    let jobs: Parser = &|t| parse_jobs(t).map(drop);
    let results: Parser = &|t| parse_results(t).map(drop);
    let bad_digit = "bad number: invalid digit found in string";
    let magic = "missing `ocr-ckpt-v1` magic line";
    let done = "done steps 1 routed 0 degraded 0 preempts 0";
    let dup_result = format!("ocr-results-v1\njob a {done}\njob a {done}");
    let trailing = format!("ocr-results-v1\njob a {done} extra");
    let rows: Vec<(Parser, &str, usize, &str)> = vec![
        // Chip: every directive, then an unknown one.
        (chip, "die 0 0 10", 1, "missing number"),
        (chip, "die 0 0 10 x", 1, bad_digit),
        (
            chip,
            "die 0 0 99999999999999999999 1",
            1,
            "bad number: number too large to fit in target type",
        ),
        (chip, "rule", 1, "missing layer"),
        (chip, "rule metal9 1 1 1", 1, "unknown layer `metal9`"),
        (chip, "rule metal1 1 1", 1, "missing number"),
        (chip, "cell", 1, "missing cell name"),
        (chip, "cell a 0 0 1", 1, "missing number"),
        (
            chip,
            "cell a 0 0 1 1\ncell a 0 0 1 1",
            2,
            "duplicate cell `a`",
        ),
        (chip, "row 0", 1, "missing number"),
        (chip, "row 0 10 ghost", 1, "unknown cell `ghost` in row"),
        (chip, "margins 5", 1, "missing number"),
        (chip, "obstacle 0 0 5", 1, "missing number"),
        (
            chip,
            "obstacle 0 0 5 5",
            1,
            "obstacle needs at least one layer",
        ),
        (
            chip,
            "obstacle 0 0 5 5 metal3 poly",
            1,
            "unknown layer `poly`",
        ),
        (chip, "net", 1, "missing net name"),
        (chip, "net a", 1, "missing net class"),
        (chip, "net a wobbly", 1, "unknown net class `wobbly`"),
        (
            chip,
            "net a signal x",
            1,
            "bad criticality: invalid digit found in string",
        ),
        (chip, "net a signal\nnet a clock", 2, "duplicate net `a`"),
        (chip, "pin", 1, "missing net"),
        (chip, "pin ghost - 0 0 metal1", 1, "unknown net `ghost`"),
        (chip, "net a signal\npin a", 2, "missing cell"),
        (
            chip,
            "net a signal\npin a ghost 0 0 metal1",
            2,
            "unknown cell `ghost` for pin",
        ),
        (chip, "net a signal\npin a - 0", 2, "missing number"),
        (chip, "net a signal\npin a - 0 0", 2, "missing pin layer"),
        (
            chip,
            "net a signal\npin a - 0 0 m7",
            2,
            "unknown layer `m7`",
        ),
        // A fixed-arity chip directive takes no trailing token.
        (chip, "die 0 0 10 10 7", 1, "unexpected trailing token `7`"),
        (
            chip,
            "rule metal1 1 1 1 1",
            1,
            "unexpected trailing token `1`",
        ),
        (chip, "cell a 0 0 1 1 x", 1, "unexpected trailing token `x`"),
        (chip, "margins 5 5 5", 1, "unexpected trailing token `5`"),
        (chip, "net a signal 3 x", 1, "unexpected trailing token `x`"),
        (
            chip,
            "net a signal\npin a - 0 0 metal1 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            chip,
            "# c\n\nfrobnicate 3",
            3,
            "unknown directive `frobnicate`",
        ),
        // Routes: `wire`, `via` and `failed`.
        (routes, "wire", 1, "missing net"),
        (
            routes,
            "wire ghost metal3 0 0 1 0",
            1,
            "unknown net `ghost`",
        ),
        (routes, "wire a", 1, "missing layer"),
        (routes, "wire a poly 0 0 1 0", 1, "unknown layer `poly`"),
        (routes, "wire a metal3 0 0 1", 1, "wire needs 4 coordinates"),
        (
            routes,
            "wire a metal3 0 0 1 0 9",
            1,
            "wire needs 4 coordinates",
        ),
        (routes, "wire a metal3 0 0 1 0 x", 1, bad_digit),
        (
            routes,
            "wire a metal3 0 0 1 1",
            1,
            "wire endpoints are not axis-parallel",
        ),
        (routes, "via", 1, "missing net"),
        (routes, "via a metal2", 1, "missing layer"),
        (
            routes,
            "via a metal2 metal3 5",
            1,
            "via needs 2 coordinates",
        ),
        (routes, "via a metal2 metal3 5 y", 1, bad_digit),
        (routes, "failed", 1, "missing net"),
        (routes, "failed ghost", 1, "unknown net `ghost`"),
        (routes, "failed a b", 1, "unexpected trailing token `b`"),
        (
            routes,
            "wire a m3 0 0 1 0\nroute a",
            2,
            "unknown directive `route`",
        ),
        // Checkpoint: the magic line, then every directive.
        (ckpt, "", 1, magic),
        (ckpt, "# only a comment\n", 1, magic),
        (ckpt, "\nflow overcell", 2, magic),
        (ckpt, "ocr-ckpt-v1 extra", 1, magic),
        (ckpt, "ocr-ckpt-v1\nflow", 2, "missing flow name"),
        (ckpt, "ocr-ckpt-v1\nchip", 2, "missing chip hash"),
        (
            ckpt,
            "ocr-ckpt-v1\nchip xyz",
            2,
            "bad chip hash: invalid digit found in string",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nsalvage",
            2,
            "salvage must be 0 or 1, got None",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nsalvage 2",
            2,
            "salvage must be 0 or 1, got Some(\"2\")",
        ),
        (ckpt, "ocr-ckpt-v1\nsteps", 2, "missing number"),
        (ckpt, "ocr-ckpt-v1\nsteps -1", 2, bad_digit),
        (ckpt, "ocr-ckpt-v1\nrips-left x", 2, bad_digit),
        (ckpt, "ocr-ckpt-v1\nstat", 2, "missing stat name"),
        (ckpt, "ocr-ckpt-v1\nstat rips", 2, "missing stat value"),
        (
            ckpt,
            "ocr-ckpt-v1\nstat rips 1.5",
            2,
            "bad stat value: invalid digit found in string",
        ),
        (ckpt, "ocr-ckpt-v1\nrouted", 2, "missing net"),
        (ckpt, "ocr-ckpt-v1\nrouted ghost", 2, "unknown net `ghost`"),
        (
            ckpt,
            "ocr-ckpt-v1\nrouted a\nrouted a",
            3,
            "net#0 declared twice",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nrouted a\nfailed a why",
            3,
            "net#0 declared twice",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\npending b\npending b",
            3,
            "net#1 declared twice",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nwire a metal3 0 0 9 0",
            2,
            "wire for a net not declared routed",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nvia a metal3 metal4 0 0",
            2,
            "via for a net not declared routed",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nwire ghost metal3 0 0 9 0",
            2,
            "unknown net `ghost`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nwire a metal3 0 0 9 9",
            2,
            "wire endpoints are not axis-parallel",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nrouted a\nwire a metal3 0 0 9",
            3,
            "wire needs 4 coordinates",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nrouted a\nvia a metal3",
            3,
            "missing layer",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nrouted a\nvia a metal3 metal4 0 0 0",
            3,
            "via needs 2 coordinates",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nfailed a",
            2,
            "failed needs a reason token",
        ),
        (ckpt, "ocr-ckpt-v1\nunrouted a", 2, "missing number"),
        (ckpt, "ocr-ckpt-v1\nunrouted a 1 x", 2, bad_digit),
        (ckpt, "ocr-ckpt-v1\nexcl", 2, "missing net"),
        (
            ckpt,
            "ocr-ckpt-v1\nexcl a b ghost",
            2,
            "unknown net `ghost`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nexcl a b\nexcl a",
            3,
            "net#0 has two excl lines",
        ),
        (ckpt, "ocr-ckpt-v1\nretry a", 2, "missing number"),
        (
            ckpt,
            "ocr-ckpt-v1\nretry a 1\nretry a 2",
            3,
            "net#0 has two retry lines",
        ),
        // A fixed-arity checkpoint directive takes no trailing token.
        (
            ckpt,
            "ocr-ckpt-v1\nflow overcell x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nchip ab x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nsalvage 1 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nsteps 1 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nrips-left 1 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nstat rips 1 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nrouted a x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\npending a x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nunrouted a 1 2 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nretry a 1 x",
            2,
            "unexpected trailing token `x`",
        ),
        (
            ckpt,
            "ocr-ckpt-v1\nfrobnicate",
            2,
            "unknown directive `frobnicate`",
        ),
        // Jobs and results manifests: the magic line and `job` lines.
        (jobs, "", 1, "empty job manifest file"),
        (jobs, "# c\n\n", 1, "empty job manifest file"),
        (
            jobs,
            "\nocr-results-v1\n",
            2,
            "not a job manifest file (expected `ocr-jobs-v1`)",
        ),
        (
            jobs,
            "ocr-jobs-v1 x\n",
            1,
            "not a job manifest file (expected `ocr-jobs-v1`)",
        ),
        (jobs, "ocr-jobs-v1\njob\n", 2, "job: missing name"),
        (jobs, "ocr-jobs-v1\nnet a b\n", 2, "unknown directive `net`"),
        (
            jobs,
            "ocr-jobs-v1\njob .x a.ocr\n",
            2,
            "bad job name `.x` (want [A-Za-z0-9._-]{1,64}, no leading dot)",
        ),
        (jobs, "ocr-jobs-v1\njob a\n", 2, "job a: missing chip path"),
        (
            jobs,
            "ocr-jobs-v1\njob a a.ocr\n# x\njob a b.ocr\n",
            4,
            "duplicate job name `a`",
        ),
        (
            jobs,
            "ocr-jobs-v1\njob a a.ocr priority x\n",
            2,
            "bad priority `x`: invalid digit found in string",
        ),
        (
            jobs,
            "ocr-jobs-v1\njob a a.ocr turbo\n",
            2,
            "unknown job option `turbo`",
        ),
        (results, "", 1, "empty result manifest file"),
        (
            results,
            "ocr-jobs-v1\n",
            1,
            "not a result manifest file (expected `ocr-results-v1`)",
        ),
        (results, "ocr-results-v1\njob", 2, "job: missing name"),
        (
            results,
            "ocr-results-v1\nrow a",
            2,
            "unknown directive `row`",
        ),
        (
            results,
            "ocr-results-v1\njob a/b done",
            2,
            "bad job name `a/b`",
        ),
        (results, "ocr-results-v1\njob a", 2, "missing status"),
        (
            results,
            "ocr-results-v1\njob a won",
            2,
            "unknown status `won`",
        ),
        (results, &trailing, 2, "unexpected trailing token `extra`"),
        (results, &dup_result, 3, "duplicate job `a`"),
    ];
    for (parse, text, line, message) in rows {
        let expected = ParseError {
            line,
            message: message.to_string(),
        };
        assert_eq!(parse(text), Err(expected), "input {text:?}");
    }
}
