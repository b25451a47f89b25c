//! End-to-end trials/sec for the campaign hot loop. The measured unit
//! is [`campaign::run_job`] — boot, checkpoint, fork, rewind-per-bit,
//! adaptive decode — i.e. exactly what a campaign spends its time on.
//! Also prints a steady-state stepping rate and a per-phase wall
//! breakdown (not timed benchmarks).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phantom::primitives::{p1_probe_scored, PrimitiveConfig};
use phantom::runner::TrialRunner;
use phantom::{UarchProfile, UarchRegistry};
use phantom_bench::campaign::{self, CampaignConfig, CampaignScenario};
use phantom_isa::asm::Assembler;
use phantom_isa::inst::AluOp;
use phantom_isa::{Inst, Reg};
use phantom_kernel::System;
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::Machine;
use phantom_sidechannel::{NoiseModel, ProbeArena, ProbeLevel};

/// The default campaign grid (all uarches × both channels × all noise
/// points) scaled to criterion-iteration size by lowering bits per job.
fn mix(bits: usize) -> CampaignConfig {
    let registry = UarchRegistry::with_builtins();
    let mut cfg = CampaignConfig::default_grid(&registry);
    cfg.bits = bits;
    cfg
}

/// One representative job per scenario (zen2, quiet noise), 64 bits:
/// the per-scenario trials/sec.
fn bench_per_scenario(c: &mut Criterion) {
    let cfg = mix(64);
    let jobs = campaign::jobs(&cfg);
    let mut group = c.benchmark_group("trials/zen2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.bits as u64));
    for scenario in [CampaignScenario::Fetch, CampaignScenario::Execute] {
        let job = jobs
            .iter()
            .find(|j| j.uarch_key == "zen2" && j.scenario == scenario && j.noise.axis == "quiet")
            .expect("zen2 quiet job exists in the default grid");
        group.bench_function(BenchmarkId::from_parameter(scenario.as_str()), |b| {
            let runner = TrialRunner::with_threads(1);
            b.iter(|| campaign::run_job(&runner, &cfg, job).expect("job runs"));
        });
    }
    group.finish();
}

/// The whole default mix — every job in the default grid at 8 bits per
/// job — as one iteration.
fn bench_throughput_mix(c: &mut Criterion) {
    let cfg = mix(8);
    let jobs = campaign::jobs(&cfg);
    let mut group = c.benchmark_group("trials/throughput_mix");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.total_trials() as u64));
    group.bench_function("default", |b| {
        let runner = TrialRunner::with_threads(1);
        b.iter(|| {
            for job in &jobs {
                campaign::run_job(&runner, &cfg, job).expect("job runs");
            }
        });
    });
    group.finish();
}

/// Per-phase wall breakdown of one Fetch-channel trial loop: boot
/// (warm cached boot), fork (checkpoint), and per-trial rewind /
/// probe re-arm / step. Not a timed criterion benchmark — the phases
/// are measured independently with `Instant` so the line shows *where*
/// the trial budget goes.
fn report_phase_breakdown(_c: &mut Criterion) {
    const TRIALS: u32 = 64;
    const PROBE_SET: usize = 43;
    let seed = 0x7aceu64 ^ 0xc0de;
    // Build the (zen2, 1 GiB) template untimed: the boot row reports
    // the steady-state (warm-cache) cost.
    drop(System::new_cached(UarchProfile::zen2(), 1 << 30, seed));
    let t = Instant::now();
    let mut sys = System::new_cached(UarchProfile::zen2(), 1 << 30, seed).expect("system boots");
    let boot = t.elapsed().as_secs_f64();

    let attacker = VirtAddr::new(0x5000_0000);
    let arena =
        ProbeArena::install(sys.machine_mut(), attacker, ProbeLevel::L1I).expect("arena installs");
    let cfg = PrimitiveConfig::for_system(&sys, attacker).with_arena(arena);
    let victim = sys.image().listing1_nop;
    let t1 = sys.image().base + 0x2000 + (PROBE_SET as u64) * 64;

    let t = Instant::now();
    let snap = sys.machine_mut().checkpoint();
    let fork = t.elapsed().as_secs_f64();

    let mut noise = NoiseModel::quiet(seed);
    let (mut rewind, mut map, mut step) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..TRIALS {
        let t = Instant::now();
        snap.rewind(sys.machine_mut());
        rewind += t.elapsed().as_secs_f64();
        // The probe re-arm phase in isolation.
        let t = Instant::now();
        drop(arena.arm(sys.machine_mut(), PROBE_SET).expect("arena arms"));
        map += t.elapsed().as_secs_f64();
        let t = Instant::now();
        p1_probe_scored(&mut sys, &cfg, victim, t1, &mut noise).expect("probe runs");
        step += t.elapsed().as_secs_f64();
    }
    let per = 1e6 / TRIALS as f64;
    println!(
        "phase-breakdown: boot {:.2} ms, fork {:.2} ms, per-trial rewind {:.1} us, \
         re-arm {:.1} us, step {:.1} us",
        boot * 1e3,
        fork * 1e3,
        rewind * per,
        map * per,
        step * per,
    );
}

/// Steady-state stepping rate: the same straight-line hot loop the
/// decode-cache snapshot uses, stepped 20k architectural instructions
/// per round, minimum over the rounds taken. Printed, not
/// criterion-timed: on a noisy shared host the minimum of short rounds
/// is steadier than a criterion mean.
fn report_steady_state(_c: &mut Criterion) {
    const STEPS: u64 = 20_000;
    const ROUNDS: usize = 12;
    let build = || {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let mut a = Assembler::new(0x40_0000);
        a.push(Inst::MovImm {
            dst: Reg::R0,
            imm: 0,
        });
        a.push(Inst::MovImm {
            dst: Reg::R1,
            imm: 3,
        });
        a.push(Inst::MovImm {
            dst: Reg::R2,
            imm: 0x1234_5678,
        });
        a.label("hot");
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R0,
            src: Reg::R1,
        });
        a.push(Inst::Alu {
            op: AluOp::Xor,
            dst: Reg::R2,
            src: Reg::R0,
        });
        a.push(Inst::Shl {
            dst: Reg::R2,
            amount: 1,
        });
        a.push(Inst::Shr {
            dst: Reg::R2,
            amount: 1,
        });
        a.jmp("hot");
        let blob = a.finish().expect("hot loop assembles");
        m.load_blob(&blob, PageFlags::USER_TEXT)
            .expect("hot loop fits");
        m.set_pc(VirtAddr::new(blob.base));
        m
    };
    let mut m = build();
    m.run(STEPS).expect("warmup runs"); // warm caches
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        m.run(STEPS).expect("hot loop runs");
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
    }
    println!("steady-state stepping (hot loop, min of {ROUNDS} rounds): {best:.1} ns/step");
}

criterion_group!(
    benches,
    report_steady_state,
    report_phase_breakdown,
    bench_per_scenario,
    bench_throughput_mix
);
criterion_main!(benches);
