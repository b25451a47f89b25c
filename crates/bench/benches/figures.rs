//! Figure 6 (µop-cache sweep) and Figure 7 (BTB function recovery)
//! benches, plus the discover fuzzer's per-finding GF(2) oracle
//! (`cargo bench -p phantom-bench --bench figures -- oracle`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phantom::collide::{collect_collisions, recover_figure7, BtbOracle};
use phantom::UarchProfile;
use phantom_bench::discover::{generate_case, oracle_confirms};
use phantom_bpu::BtbScheme;
use phantom_mem::VirtAddr;

fn bench_figure6_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure6");
    group.sample_size(10);
    // One sweep with a coarse step (16 points).
    group.bench_function("zen2_sweep_16pts", |b| {
        b.iter(|| phantom::experiment::figure6(UarchProfile::zen2(), 0xac0, 0x100).expect("sweep"))
    });
    group.finish();
}

fn bench_collision_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure7/collisions");
    group.sample_size(10);
    let k = VirtAddr::new(0xffff_ffff_8124_6ac0);
    for n in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut oracle = BtbOracle::new(BtbScheme::zen34());
            b.iter(|| collect_collisions(&mut oracle, k, n, 42))
        });
    }
    group.finish();
}

fn bench_figure7_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure7/solve");
    group.sample_size(10);
    group.bench_function("recover_from_24_samples", |b| {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        b.iter(|| recover_figure7(&mut oracle, &[VirtAddr::new(0xffff_ffff_8124_6ac0)], 24, 7))
    });
    group.finish();
}

fn bench_oracle_confirms(c: &mut Criterion) {
    // The first 32 generated cases with an aliased training site: each
    // samples 32 colliders and solves them, as `repro discover` does
    // for every aliased finding.
    let cases: Vec<_> = (0u64..)
        .map(generate_case)
        .filter(|c| c.delta != 0)
        .take(32)
        .collect();
    let mut group = c.benchmark_group("figure7/oracle_confirms");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cases.len() as u64));
    group.bench_function("32_aliased_cases", |b| {
        b.iter(|| cases.iter().filter(|c| oracle_confirms(c)).count())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_figure6_point,
    bench_collision_collection,
    bench_figure7_recovery,
    bench_oracle_confirms
);
criterion_main!(benches);
