//! The traced run: the same jobs and cases, re-driven through the
//! crates' public calls with a span around each call, plus the work
//! counters the crates expose.
//!
//! Spans are recorded from the benchmark's own code, so they sit at
//! crate boundaries only. A span's self time is its duration minus the
//! durations of the spans it encloses; the root span of each job or
//! case keeps what no layer span covered (`unattributed`). Spans are
//! folded into per-name totals as they close.
//!
//! Every re-driven job or case must rebuild the exact JSONL record the
//! untraced call produced; otherwise the re-drive measured something
//! else and its numbers are rejected.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom::attacks::{pht_channel_decoded_on, PhtChannelConfig};
use phantom::decode::{decode_adaptive, Decoded, DecoderConfig};
use phantom::primitives::PrimitiveConfig;
use phantom::report::json::SCHEMA;
use phantom::report::value::JsonValue;
use phantom::runner::{trial_seed, TrialRunner};
use phantom_bench::campaign::{CampaignConfig, CampaignScenario, Job};
use phantom_bench::discover::{
    assemble_ops, beyond_table1, discover_jsonl, generate_case, minimize_case, oracle_confirms,
    run_case, CaseOutcome, DiscoverReport, Finding,
};
use phantom_cache::Event;
use phantom_isa::BranchKind;
use phantom_kernel::image::LISTING3_DISP;
use phantom_kernel::System;
use phantom_mem::VirtAddr;
use phantom_pipeline::Machine;
use phantom_sidechannel::{ProbeArena, ProbeLevel, Reading};

use crate::workloads::{Item, Pass, DISCOVER_BUDGET};

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u128,
    /// Summed duration minus enclosed spans, ns.
    pub self_ns: u128,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u128,
}

/// A stack of open spans folding into per-name [`Layer`] totals.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Open>,
    /// Totals by span name.
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    fn enter(&mut self, name: &'static str) {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let open = self.stack.pop().expect("exit matches an enter");
        let ns = open.start.elapsed().as_nanos();
        let layer = self.layers.entry(open.name).or_default();
        layer.calls += 1;
        layer.total_ns += ns;
        layer.self_ns += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Totals of `name` (zero when no such span closed).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// The exact work counters of one traced pass.
pub type Counts = BTreeMap<&'static str, u64>;

/// Counters read off a machine. Some live in state a rewind restores
/// (PMU, TLB, decode cache), others only grow (CoW and rewind
/// accounting, trace engine, probe re-arms).
#[derive(Clone, Copy)]
struct Sample([u64; 16]);

const SAMPLED: [&str; 16] = [
    "pipeline.inst_retired",
    "pipeline.cycles",
    "pipeline.resteer_frontend",
    "bpu.mispredict",
    "cache.icache_miss",
    "cache.dcache_miss",
    "mem.tlb.hits",
    "mem.tlb.misses",
    "pipeline.trace.hits",
    "pipeline.trace.bailouts",
    "pipeline.decode_cache.hits",
    "pipeline.decode_cache.misses",
    "mem.cow_faults",
    "mem.rewind_journal_frames",
    "mem.frame_pool_reuses",
    "sidechannel.probe_rearms",
];

impl Sample {
    fn read(m: &Machine) -> Sample {
        let pmu = m.pmu();
        let (trace_hits, trace_bailouts, _) = m.trace_stats();
        let (dc_hits, dc_misses) = m.decode_cache_stats();
        let phys = m.phys();
        Sample([
            pmu.read(Event::InstRetired),
            m.cycles(),
            pmu.read(Event::ResteerFrontend),
            pmu.read(Event::BranchMispredict),
            pmu.read(Event::IcacheMiss),
            pmu.read(Event::DcacheMiss),
            m.tlb().hits(),
            m.tlb().misses(),
            trace_hits,
            trace_bailouts,
            dc_hits,
            dc_misses,
            phys.cow_faults(),
            phys.rewind_journal_frames(),
            phys.frame_pool_reuses(),
            m.probe_rearms(),
        ])
    }

    /// Add one trial's work: `before` the rewind, `rewound` after it,
    /// `after` the probes. A counter the rewind restored reads lower
    /// (or equal) after it, so only growth across the rewind counts.
    fn add_trial(counts: &mut Counts, before: Sample, rewound: Sample, after: Sample) {
        for (i, name) in SAMPLED.iter().enumerate() {
            let work =
                after.0[i].saturating_sub(rewound.0[i]) + rewound.0[i].saturating_sub(before.0[i]);
            *counts.entry(name).or_default() += work;
        }
    }
}

/// What one traced pass produced.
pub struct TracedPass {
    /// The rebuilt JSONL text of every item.
    pub records: Vec<String>,
    /// Traced time of every item, in ms.
    pub item_ms: Vec<f64>,
    /// Exact work counters.
    pub counts: Counts,
}

/// Re-drive every item of `pass` under `tracer`.
pub fn run_pass(pass: &Pass, tracer: &mut Tracer) -> Result<TracedPass, String> {
    let boot = phantom_kernel::boot_cache::global();
    let (hits, misses) = (boot.hits(), boot.misses());
    let mut counts = Counts::new();
    for name in SAMPLED {
        counts.insert(name, 0);
    }
    for name in ["core.probe.calls", "isa.accepted", "discover.leaks"] {
        counts.insert(name, 0);
    }
    let mut records = Vec::with_capacity(pass.items.len());
    let mut item_ms = Vec::with_capacity(pass.items.len());
    for item in &pass.items {
        let start = Instant::now();
        tracer.enter("job");
        let record = match item {
            Item::Job { campaign, job } => {
                let cfg = &pass.campaigns[*campaign];
                match job.scenario {
                    CampaignScenario::Pht => pht_job(tracer, cfg, job),
                    _ => channel_job(tracer, cfg, job, &mut counts),
                }
            }
            Item::Fuzz { seed, .. } => Ok(discover_run(tracer, *seed, &mut counts)),
        };
        tracer.exit();
        item_ms.push(start.elapsed().as_secs_f64() * 1e3);
        records.push(record?);
    }
    counts.insert("kernel.boot_cache.hits", boot.hits() - hits);
    counts.insert("kernel.boot_cache.misses", boot.misses() - misses);
    Ok(TracedPass {
        records,
        item_ms,
        counts,
    })
}

/// The per-bit metric fields every campaign record carries.
struct JobMetrics {
    accuracy: f64,
    seconds: f64,
    bits_per_sec: f64,
    probes: u64,
    abstentions: u64,
    mean_confidence: f64,
}

/// The campaign JSONL record of a job, field for field.
fn job_record(tracer: &mut Tracer, cfg: &CampaignConfig, job: &Job, r: &JobMetrics) -> String {
    let mut rec = JsonValue::object();
    rec.set("schema", JsonValue::Str(SCHEMA.to_string()))
        .set("kind", JsonValue::Str("campaign".to_string()))
        .set("job", JsonValue::Str(job.id.clone()))
        .set("index", JsonValue::Uint(job.index as u64))
        .set("uarch", JsonValue::Str(job.uarch_key.clone()))
        .set(
            "scenario",
            JsonValue::Str(job.scenario.as_str().to_string()),
        )
        .set("noise_axis", JsonValue::Str(job.noise.axis.to_string()))
        .set("noise_value", JsonValue::Float(job.noise.value))
        .set("bits", JsonValue::Uint(cfg.bits as u64))
        .set("seed", JsonValue::Uint(trial_seed(cfg.seed, job.index)))
        .set("accuracy", JsonValue::Float(r.accuracy))
        .set("seconds", JsonValue::Float(r.seconds))
        .set("bits_per_sec", JsonValue::Float(r.bits_per_sec))
        .set("probes", JsonValue::Uint(r.probes))
        .set("abstentions", JsonValue::Uint(r.abstentions))
        .set("mean_confidence", JsonValue::Float(r.mean_confidence));
    let mut line = tracer.span("core.report.encode", || rec.to_compact_string());
    line.push('\n');
    line
}

/// A PHT-channel job: one opaque call into `core::attacks`.
fn pht_job(tracer: &mut Tracer, cfg: &CampaignConfig, job: &Job) -> Result<String, String> {
    let seed = trial_seed(cfg.seed, job.index);
    let config = PhtChannelConfig {
        bits: cfg.bits,
        seed,
    };
    let r = tracer
        .span("core.attacks.pht_job", || {
            pht_channel_decoded_on(
                &TrialRunner::with_threads(1),
                job.profile.clone(),
                config,
                job.noise.model(seed),
                DecoderConfig::default(),
            )
        })
        .map_err(|e| format!("job {}: {e}", job.id))?;
    let metrics = JobMetrics {
        accuracy: r.accuracy,
        seconds: r.seconds,
        bits_per_sec: r.bits_per_sec,
        probes: r.probes,
        abstentions: r.abstentions as u64,
        mean_confidence: r.mean_confidence,
    };
    Ok(job_record(tracer, cfg, job, &metrics))
}

/// A fetch (P1) or execute (P2) covert-channel job, re-driven the way
/// the campaign's channel scenario runs it at one worker: boot once
/// from the boot cache, stand up the probe arena, checkpoint, fork,
/// then per bit rewind and decode adaptively over scored probes.
fn channel_job(
    tracer: &mut Tracer,
    cfg: &CampaignConfig,
    job: &Job,
    counts: &mut Counts,
) -> Result<String, String> {
    let fetch = job.scenario == CampaignScenario::Fetch;
    let fail = |e: &dyn std::fmt::Display| format!("job {}: {e}", job.id);
    let seed = trial_seed(cfg.seed, job.index);
    let noise_proto = job.noise.model(seed);
    let boot_salt = if fetch { 0xc0de } else { 0xe8ec };
    let uarch_salt: u64 = job.profile.name.bytes().map(u64::from).sum();

    let mut sys = tracer
        .span("kernel.boot", || {
            System::new_cached(job.profile.clone(), 1 << 30, seed ^ boot_salt)
        })
        .map_err(|e| fail(&e))?;
    let attacker = VirtAddr::new(0x5000_0000);
    let arena = tracer
        .span("sidechannel.arm", || {
            if fetch {
                ProbeArena::install(sys.machine_mut(), attacker, ProbeLevel::L1I)
            } else {
                ProbeArena::install(sys.machine_mut(), attacker + 0x20_0000, ProbeLevel::L1D)
            }
        })
        .map_err(|e| fail(&e))?;
    let pcfg = PrimitiveConfig::for_system(&sys, attacker).with_arena(arena);
    let (t1, t0, victim, gadget) = if fetch {
        let t1 = sys.image().base + 0x2000 + 43 * 64;
        (
            t1,
            VirtAddr::new(t1.raw() ^ 0x2000_0000),
            sys.image().listing1_nop,
            VirtAddr::new(0),
        )
    } else {
        let t1 = sys.layout().physmap_base() + 0x10_0000 + 29 * 64;
        (
            t1,
            VirtAddr::new(t1.raw() ^ 0x2_0000_0000),
            sys.image().listing2_call,
            sys.image().listing3_gadget,
        )
    };
    let snap = tracer.span("pipeline.checkpoint", || sys.machine_mut().checkpoint());
    let snap_cycles = sys.machine().cycles();
    let mut live = tracer.span("mem.fork", || sys.clone());

    let decoder = DecoderConfig::default();
    let (mut correct, mut abstentions, mut probes) = (0u64, 0u64, 0u64);
    let (mut confidence, mut cycles) = (0.0f64, 0u64);
    for index in 0..cfg.bits {
        let trial = trial_seed(seed, index);
        let before = Sample::read(live.machine());
        tracer.span("mem.rewind", || snap.rewind(live.machine_mut()));
        let rewound = Sample::read(live.machine());
        let bit = StdRng::seed_from_u64(trial).gen_bool(0.5);
        let target = if bit { t1 } else { t0 };
        let mut noise = noise_proto.reseeded(trial ^ uarch_salt);
        tracer.enter("core.decode");
        let outcome = decode_adaptive(&decoder, |_| {
            tracer.enter("core.probe");
            let reading = probe(
                tracer, &mut live, &pcfg, fetch, victim, gadget, target, &mut noise,
            );
            tracer.exit();
            reading.map(|r| (r.hit, r.confidence))
        });
        tracer.exit();
        let outcome = outcome.map_err(|e| fail(&e))?;
        Sample::add_trial(counts, before, rewound, Sample::read(live.machine()));
        *counts.entry("core.probe.calls").or_default() += u64::from(outcome.probes);
        match outcome.decoded {
            Decoded::Bit(b) => correct += u64::from(b == bit),
            Decoded::Abstain => abstentions += 1,
        }
        probes += u64::from(outcome.probes);
        confidence += outcome.confidence.value();
        cycles += live.machine().cycles() - snap_cycles;
    }
    let bits = cfg.bits.max(1) as f64;
    let seconds = job.profile.cycles_to_seconds(cycles);
    let metrics = JobMetrics {
        accuracy: correct as f64 / bits,
        seconds,
        bits_per_sec: cfg.bits as f64 / seconds,
        probes,
        abstentions,
        mean_confidence: confidence / bits,
    };
    Ok(job_record(tracer, cfg, job, &metrics))
}

/// One scored P1 (fetch) or P2 (execute) probe, composed from the
/// public steps of `p1_probe_scored` / `p2_probe_scored` so that the
/// arena re-arm gets its own span.
#[allow(clippy::too_many_arguments)]
fn probe(
    tracer: &mut Tracer,
    sys: &mut System,
    cfg: &PrimitiveConfig,
    fetch: bool,
    victim: VirtAddr,
    gadget: VirtAddr,
    target: VirtAddr,
    noise: &mut phantom_sidechannel::NoiseModel,
) -> Result<Reading, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let set = ((target.raw() >> 6) & 63) as usize;
    let arena = cfg.arena.ok_or("probe arena missing")?;
    let pp = tracer
        .span("sidechannel.arm", || arena.arm(sys.machine_mut(), set))
        .map_err(|e| err(&e))?;
    if fetch {
        sys.train_user_branch(cfg.user_alias(victim), BranchKind::Indirect, target)
            .map_err(|e| err(&e))?;
        pp.prime(sys.machine_mut()).map_err(|e| err(&e))?;
        sys.getpid().map_err(|e| err(&e))?;
    } else {
        sys.train_user_branch(cfg.user_alias(victim), BranchKind::Indirect, gadget)
            .map_err(|e| err(&e))?;
        pp.prime(sys.machine_mut()).map_err(|e| err(&e))?;
        sys.readv(0, target.raw().wrapping_sub(LISTING3_DISP as u64))
            .map_err(|e| err(&e))?;
    }
    pp.probe_scored(sys.machine_mut(), noise)
        .map(|(_, reading)| reading)
        .map_err(|e| err(&e))
}

/// Where `run_case` assembles the victim program.
const VICTIM: u64 = 0x40_0ac0;
/// Physical memory of the machine `run_case` builds.
const CASE_PHYS: u64 = 1 << 26;

/// A `discover` run, re-driven case by case the way the fuzzer's
/// scenario evaluates each trial. The assembler and `Machine::new` run
/// once more on their own (inside spans) because `run_case` calls them
/// internally; that duplicate work is part of the trace overhead.
fn discover_run(tracer: &mut Tracer, seed: u64, counts: &mut Counts) -> String {
    let mut report = DiscoverReport {
        budget: DISCOVER_BUDGET,
        seed,
        findings: Vec::new(),
        quiet: 0,
        rejected: BTreeMap::new(),
        faulted: 0,
    };
    for index in 0..DISCOVER_BUDGET {
        let case = tracer.span("discover.generate", || {
            generate_case(trial_seed(seed, index))
        });
        let assembled = tracer.span("isa.assemble", || assemble_ops(VICTIM, &case.ops).is_ok());
        if assembled {
            *counts.entry("isa.accepted").or_default() += 1;
            let profile = case.spec.profile();
            tracer.span("pipeline.machine_new", || {
                drop(Machine::new(profile, CASE_PHYS))
            });
        }
        match tracer.span("discover.run_case", || run_case(&case)) {
            CaseOutcome::Rejected(reason) => {
                *report.rejected.entry(reason).or_insert(0) += 1;
            }
            CaseOutcome::Faulted(_) => report.faulted += 1,
            CaseOutcome::Quiet(_) => report.quiet += 1,
            CaseOutcome::Leak(_) => {
                *counts.entry("discover.leaks").or_default() += 1;
                let min = tracer.span("discover.minimize", || minimize_case(&case));
                match tracer.span("discover.run_case", || run_case(&min)) {
                    CaseOutcome::Leak(obs) => {
                        let oracle_confirmed = tracer.span("gf2.oracle", || oracle_confirms(&min));
                        report.findings.push(Finding {
                            index,
                            oracle_confirmed,
                            beyond_table1: beyond_table1(&min),
                            stage: obs.stage,
                            truth: obs.truth,
                            disagreement: obs.disagreement,
                            case: min,
                        });
                    }
                    _ => report.faulted += 1,
                }
            }
        }
    }
    tracer.span("core.report.encode", || discover_jsonl(&report))
}
