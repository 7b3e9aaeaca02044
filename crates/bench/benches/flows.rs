//! End-to-end flow benchmarks on the paper's benchmark suite:
//! the proposed over-cell flow vs the channel-only baselines.

use ocr_bench::harness::{BenchmarkId, Criterion};
use ocr_bench::{criterion_group, criterion_main};
use ocr_core::{FlowKind, OverCellFlow};
use ocr_gen::suite;

fn bench_flows(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_flows");
    group.sample_size(10);
    for chip in suite::all() {
        group.bench_with_input(
            BenchmarkId::new("over_cell", &chip.spec.name),
            &chip,
            |b, chip| {
                b.iter(|| {
                    OverCellFlow::default()
                        .run(&chip.layout, &chip.placement)
                        .expect("flow")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("two_layer_channel", &chip.spec.name),
            &chip,
            |b, chip| {
                b.iter(|| {
                    FlowKind::Channel2
                        .build()
                        .run(&chip.layout, &chip.placement)
                        .expect("flow")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("four_layer_channel", &chip.spec.name),
            &chip,
            |b, chip| {
                b.iter(|| {
                    FlowKind::Channel4
                        .build()
                        .run(&chip.layout, &chip.placement)
                        .expect("flow")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_flows);
criterion_main!(benches);
