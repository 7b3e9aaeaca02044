//! Determinism contract of the parallel execution engine: every flow's
//! output is a pure function of its input — independent of the
//! `ocr-exec` worker count and stable across repeated runs.
//!
//! These tests pin the guarantee DESIGN.md documents: a parallel run
//! (`OCR_THREADS=4`) is **bit-identical** to a sequential run
//! (`OCR_THREADS=1`) of the same flow on the same chip, both in routed
//! geometry and in the independent oracle's report. The worker count is
//! forced with `ocr_exec::with_threads` rather than the environment
//! variable so both runs happen inside one test process.

use overcell_router::core::{FlowKind, FlowOptions, FlowResult};
use overcell_router::exec::with_threads;
use overcell_router::gen::random::small_random;
use overcell_router::gen::{generate, suite, BenchmarkSpec};
use overcell_router::io::ckpt::fnv1a_64;
use overcell_router::io::{write_chip, write_routes};
use overcell_router::verify::VerifyReport;

/// Routed geometry + oracle report of one (flow, chip) run, in
/// byte-comparable form.
fn run_text(
    kind: FlowKind,
    layout: &overcell_router::netlist::Layout,
    placement: &overcell_router::netlist::RowPlacement,
) -> (String, VerifyReport) {
    let result: FlowResult = kind
        .build_with(FlowOptions::new().verify(true))
        .run(layout, placement)
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    let text = write_routes(&result.layout, &result.design);
    let report = result.verify.expect("verify requested");
    (text, report)
}

#[test]
fn same_seed_routes_byte_identically_twice() {
    for seed in [3u64, 19] {
        let a = small_random(6, 2, 3, 10, seed);
        let b = small_random(6, 2, 3, 10, seed);
        for kind in FlowKind::ALL {
            let (ta, _) = run_text(kind, &a.layout, &a.placement);
            let (tb, _) = run_text(kind, &b.layout, &b.placement);
            assert_eq!(ta, tb, "{kind} seed {seed}");
        }
    }
}

/// FNV-1a 64 of each suite chip's routes text, per flow in
/// [`FlowKind::ALL`] order (overcell, channel2, channel3, channel4).
/// These pin the routed geometry itself, so a refactor of any router
/// that moves a single byte fails here, not just one that breaks
/// thread-count independence.
const PINNED_ROUTES: [(&str, [u64; 4]); 3] = [
    (
        "ami33",
        [
            0x295b_0334_6dd6_1e4c,
            0x5f5d_7bf3_1d7e_0b71,
            0x68f1_2ef1_dda5_8fae,
            0x5ece_2ac0_3060_f611,
        ],
    ),
    (
        "Xerox",
        [
            0xc2b5_8faf_5eaa_33c5,
            0xbd79_85ac_21f5_b9fa,
            0x34d0_bc4a_1c86_da3c,
            0x90c9_fa1a_df61_886f,
        ],
    ),
    (
        "ex3",
        [
            0x31b0_2c94_3a2b_2b57,
            0xde62_f0d0_7e85_12cb,
            0x22af_8f96_3d2f_d281,
            0x5937_724d_5c02_4244,
        ],
    ),
];

#[test]
fn sequential_and_parallel_runs_are_bit_identical_on_the_suite() {
    for (chip, (name, pinned)) in suite::all().into_iter().zip(PINNED_ROUTES) {
        assert_eq!(chip.spec.name, name);
        for (kind, want) in FlowKind::ALL.into_iter().zip(pinned) {
            let (seq_text, seq_report) =
                with_threads(1, || run_text(kind, &chip.layout, &chip.placement));
            let (par_text, par_report) =
                with_threads(4, || run_text(kind, &chip.layout, &chip.placement));
            assert_eq!(
                seq_text, par_text,
                "{}/{kind}: routed geometry diverged between 1 and 4 threads",
                chip.spec.name
            );
            assert_eq!(
                seq_report, par_report,
                "{}/{kind}: oracle report diverged between 1 and 4 threads",
                chip.spec.name
            );
            assert_eq!(
                fnv1a_64(&seq_text),
                want,
                "{name}/{kind}: routed geometry moved from its pinned hash"
            );
        }
    }
}

/// Routes a stress chip with the over-cell flow and checks its routes
/// against a pinned FNV-1a hash. These chips exercise what the suite
/// barely does: clipped and full-die MBFS failures, the maze fallback
/// and rip-up.
fn assert_stress_pin(spec: &BenchmarkSpec, want: u64) {
    let chip = generate(spec);
    let (text, report) = run_text(FlowKind::OverCell, &chip.layout, &chip.placement);
    assert!(report.is_clean(), "{}: {report:?}", spec.name);
    assert_eq!(
        fnv1a_64(&text),
        want,
        "{}: routed geometry moved from its pinned hash",
        spec.name
    );
}

/// FNV-1a 64 of `write_chip` for every chip a test, a table binary or
/// perfbench generates: the suite, the `stress` ×2 and ×4 chips, the
/// perfbench ×8 chip, the serve mix's small chip (`ocr generate random`
/// at its default seed 1) and three more `ocr generate random` seeds.
/// These pin the generator itself, so a rewrite of it that moves one
/// pin, cell or obstacle fails here before any route pin does.
#[test]
fn generated_chips_match_their_pinned_hash() {
    let mut chips = suite::all();
    chips.push(generate(&suite::stress(2)));
    chips.push(generate(&suite::stress(4)));
    chips.push(generate(&suite::stress(8)));
    for seed in [1, 2, 7, 42] {
        chips.push(small_random(8, 3, 4, 20, seed));
    }
    let got: Vec<(&str, u64)> = chips
        .iter()
        .map(|c| {
            let text = write_chip(&c.layout, &c.placement);
            (c.spec.name.as_str(), fnv1a_64(&text))
        })
        .collect();
    let want = [
        ("ami33", 0x2de8_0957_f1bf_16c4),
        ("Xerox", 0x65d2_56c9_d82e_dc0a),
        ("ex3", 0xb67a_fb62_04ba_0a71),
        ("ami33x2", 0xfa04_1fc3_bf4d_785d),
        ("ami33x4", 0x1dc3_0455_7298_a870),
        ("ami33x8", 0xe86f_9b47_07ce_1c68),
        ("random-1", 0x5fb1_8039_6c0f_a3f6),
        ("random-2", 0xce84_9935_3b3c_0b90),
        ("random-7", 0x5df7_6396_2267_ed7a),
        ("random-42", 0x796e_2190_c247_9f16),
    ];
    assert_eq!(got, want, "a generated chip moved from its pinned hash");
}

#[test]
fn stress_x2_routes_match_their_pinned_hash() {
    assert_stress_pin(&suite::stress(2), 0xd3a5_436e_931a_fd7b);
}

/// The perfbench `scale8` chip (264 cells, 984 nets).
#[test]
fn scale8_routes_match_their_pinned_hash() {
    assert_stress_pin(&suite::stress(8), 0x06a8_9403_4039_98c5);
}

/// The ×16 stress chip, whose maze waves cross the most wave-buffer
/// tiles. Ignored by the plain `cargo test` runs, which build without
/// optimisation; CI runs it in release with `--ignored`.
#[test]
#[ignore]
fn stress_x16_routes_match_their_pinned_hash() {
    assert_stress_pin(&suite::stress(16), 0xec84_6696_ad7c_f5c2);
}

#[test]
fn strict_verification_is_thread_count_independent() {
    let chip = small_random(8, 3, 4, 20, 42);
    for kind in FlowKind::ALL {
        let run = |threads: usize| {
            with_threads(threads, || {
                kind.build_with(FlowOptions::new().verify(true).strict(true))
                    .run(&chip.layout, &chip.placement)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"))
                    .verify
                    .expect("verify requested")
            })
        };
        assert_eq!(run(1), run(4), "{kind}");
    }
}
