//! The repository benchmark: end-to-end metrics of three workloads of
//! the Phantom reproduction, and per-layer metrics from a traced run.
//!
//! ```text
//! phantom-perfbench --workload <campaign_long|campaign_short|discover>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! phantom-perfbench --write-golden
//! ```
//!
//! `--trace 0` times the program's own entry points on the process CPU
//! clock and prints every end-to-end metric; `--trace 1` re-drives the same jobs through the
//! crates' public calls with spans around them and prints every
//! per-layer metric. Either way every output record is checked against
//! the golden digests in `golden.txt`, and the bench snapshot against
//! the committed `BENCH_phantom.json`; any mismatch exits 1. The last
//! line of standard output is one JSON object with the result.
//! `--write-golden` regenerates `golden.txt` from the program's
//! canonical commands. See `README.md` for the method and baseline.

mod calib;
mod clock;
mod golden;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use phantom::runner::TrialRunner;
use phantom_bench::{collect_snapshot, BenchConfig};

use calib::Calibrator;
use golden::{Expected, PassDigest};
use trace::{Counts, Tracer};
use workloads::{run_item, Exact, Pass, Workload, SLOTS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// CPU time between calibrator samples, at most one job more. The
/// host's state flips every few hundred milliseconds; a sample costs
/// about 0.2 ms.
const CALIBRATE_EVERY_S: f64 = 0.020;

/// Worker threads the program's runner gets. With one, the process CPU
/// time of a job is its running time; with two, it depends on whether
/// the host schedules the second worker before the first has claimed
/// every trial (8-bit jobs read 0.71 and 0.96 CPU ms on the same host).
const WORKERS: usize = 1;

/// The committed bench snapshot the program must reproduce.
const SNAPSHOT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_phantom.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: phantom-perfbench --workload <campaign_long|campaign_short|discover> \
--seed <n> --seconds <s> --trace <0|1>\n       phantom-perfbench --write-golden";

enum Command {
    Run(Args),
    WriteGolden,
}

fn parse_args() -> Result<Command, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--write-golden" {
            return Ok(Command::WriteGolden);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// The measured program is the default build: every `PHANTOM_*`
/// switch (`TRACE_CACHE`, `BOOT_CACHE`, `REWIND_JOURNAL`, `FRAME_POOL`,
/// `PROBE_ARENA`, `WARM_FORK`, `THREADS`, `FULL`) changes what runs.
fn pinned() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PHANTOM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default program",
            set.join(", ")
        ))
    }
}

fn host_descriptor() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" rev={} profile=\"{}\"",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples)`. With ten or fewer samples, the
/// maximum.
fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0, n);
    }
    let rank = n - 11;
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64, n)
}

/// Time `SETUP_REPS` set-ups on the CPU clock: registry compile, job
/// expansion and one boot-cache template per uarch. The first fills the
/// global cache the jobs use; the others fill private caches with the
/// same work. A calibrator sample precedes each. Returns the pass, the
/// median set-up scaled by the slowdown read around each, and the
/// median of those slowdowns.
fn setup(workload: Workload, slot: u64, cal: &mut Calibrator) -> Result<(Pass, f64, f64), String> {
    let mut timed = Vec::with_capacity(SETUP_REPS);
    let mut pass = None;
    cal.begin();
    for rep in 0..SETUP_REPS {
        cal.sample();
        let taken = cal.taken();
        let start = clock::cpu_s();
        let p = Pass::expand(workload, slot);
        p.fill_boot_cache(rep == 0)?;
        timed.push((clock::cpu_s() - start, taken));
        pass.get_or_insert(p);
    }
    cal.finish();
    let slowdowns: Vec<f64> = timed
        .iter()
        .map(|&(_, taken)| cal.slowdown(taken))
        .collect();
    let scaled: Vec<f64> = timed
        .iter()
        .zip(&slowdowns)
        .map(|(&(s, _), d)| s / d)
        .collect();
    Ok((
        pass.expect("at least one set-up"),
        median(&scaled),
        median(&slowdowns),
    ))
}

/// Compare the bench snapshot with the committed one; `Err` names the
/// first differing line.
fn check_snapshot() -> Result<(), String> {
    let snap = collect_snapshot(&TrialRunner::with_threads(WORKERS), &BenchConfig::default())
        .map_err(|e| format!("bench snapshot failed: {e}"))?
        .to_json_string();
    let committed = std::fs::read_to_string(SNAPSHOT_PATH)
        .map_err(|e| format!("cannot read BENCH_phantom.json: {e}"))?;
    if snap == committed {
        return Ok(());
    }
    let line = snap
        .lines()
        .zip(committed.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| snap.lines().count().min(committed.lines().count()));
    Err(format!(
        "bench snapshot differs from BENCH_phantom.json at line {}",
        line + 1
    ))
}

/// One named result value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run hands to the final JSON line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// The first correctness failure, if any.
    error: Option<String>,
}

/// What the timed loop saw.
struct Measured {
    /// Every record produced, in order.
    records: Vec<String>,
    /// Per job of the pass: the median over its runs of each run's
    /// time scaled to the reference host, in ms.
    job_ms: Vec<f64>,
    /// Per job of the pass: the median of its runs as the CPU clock
    /// read them, in ms.
    raw_job_ms: Vec<f64>,
    /// Median slowdown the calibrator read over the run.
    slowdown: f64,
    /// Job runs made (every repetition counts).
    runs: usize,
    /// Complete passes.
    passes: usize,
    /// Peak resident set when the first pass completed, in MiB: set-up
    /// plus one pass, the same work whatever the host's speed.
    rss_mb: f64,
    job_errors: u64,
    error: Option<String>,
}

/// Run the pass through the program's own entry points until the wall
/// time budget is spent (the first pass always completes), checking
/// every record against the golden pass. Jobs are timed on the process
/// CPU clock (see [`clock`]) and each run is scaled by the slowdown
/// the calibrator read around it (see [`calib`]); a job's time is the
/// median of its scaled runs.
fn measure(
    pass: &Pass,
    expected: &Expected,
    runner: &TrialRunner,
    budget: Duration,
    cal: &mut Calibrator,
) -> Measured {
    let mut m = Measured {
        records: Vec::new(),
        job_ms: Vec::new(),
        raw_job_ms: Vec::new(),
        slowdown: 0.0,
        runs: 0,
        passes: 0,
        rss_mb: 0.0,
        job_errors: 0,
        error: None,
    };
    let mut since_sample = CALIBRATE_EVERY_S;
    let mut timed: Vec<(usize, f64, usize)> = Vec::new();
    let start = Instant::now();
    'passes: loop {
        let mut digest = PassDigest::default();
        for (index, item) in pass.items.iter().enumerate() {
            if m.passes > 0 && start.elapsed() >= budget {
                break 'passes;
            }
            if since_sample >= CALIBRATE_EVERY_S {
                cal.sample();
                since_sample = 0.0;
            }
            let t = clock::cpu_s();
            let result = run_item(pass, item, runner);
            let ms = (clock::cpu_s() - t) * 1e3;
            since_sample += ms / 1e3;
            timed.push((index, ms, cal.taken()));
            m.runs += 1;
            let record = match result {
                Ok(record) => record,
                Err(e) => {
                    m.job_errors += 1;
                    m.error = Some(format!("{} failed: {e}", pass.describe(index)));
                    break 'passes;
                }
            };
            if !expected.matches(index, &record) {
                m.error = Some(format!(
                    "output differs from the golden digest at {}",
                    pass.describe(index)
                ));
                break 'passes;
            }
            digest.push(&record);
            m.records.push(record);
        }
        if let Err(first) = expected.check_pass(&digest) {
            m.error = Some(format!(
                "pass digest differs from the golden digest; first differing record: {}",
                pass.describe(first)
            ));
            break;
        }
        m.passes += 1;
        if m.passes == 1 {
            m.rss_mb = peak_rss_mb();
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    cal.finish();
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); pass.items.len()];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); pass.items.len()];
    let mut slowdowns = Vec::with_capacity(timed.len());
    for (index, ms, taken) in timed {
        let slowdown = cal.slowdown(taken);
        scaled[index].push(ms / slowdown);
        raw[index].push(ms);
        slowdowns.push(slowdown);
    }
    m.job_ms = scaled.iter().map(|v| median(v)).collect();
    m.raw_job_ms = raw.iter().map(|v| median(v)).collect();
    m.slowdown = median(&slowdowns);
    m
}

fn run_untraced(args: &Args, slot: u64) -> Result<Outcome, String> {
    let mut cal = Calibrator::new();
    let (pass, setup_s, setup_slowdown) = setup(args.workload, slot, &mut cal)?;
    let expected = Expected::load(args.workload.name(), slot)?;
    let runner = TrialRunner::with_threads(WORKERS);
    let budget = Duration::from_secs(args.seconds);
    let m = measure(&pass, &expected, &runner, budget, &mut cal);
    let rss = m.rss_mb;

    let first_pass = &m.records[..m.records.len().min(pass.items.len())];
    let exact = Exact::of(first_pass)?;
    let all = Exact::of(&m.records)?;
    let retries = runner.trial_retries();
    let failed = m.job_errors + retries + all.faulted;
    let jobs = pass.items.len();
    let trials = pass.total_trials();
    let pass_s = m.job_ms.iter().sum::<f64>() / 1e3;
    let trials_per_s = trials as f64 / pass_s;
    let (tail_ms, tail_pct, n) = tail(&m.job_ms);
    let p50 = median(&m.job_ms);
    let raw_trials_per_s = trials as f64 / (m.raw_job_ms.iter().sum::<f64>() / 1e3);

    println!(
        "workload {} slot {slot} workers {WORKERS}: {} passes of {jobs} jobs ({trials} trials); {} job runs",
        args.workload.name(),
        m.passes,
        m.runs
    );
    println!(
        "  times are process CPU time over the calibrator's slowdown ({setup_slowdown:.4} at set-up, median {:.4} at the jobs); a job's time is the median of its runs",
        m.slowdown
    );
    let [p5, p50_cal, p95] = cal.spread_ms();
    println!(
        "  calibrator       {} samples, p5 {p5:.4} / p50 {p50_cal:.4} / p95 {p95:.4} ms (reference {:.4} ms)",
        cal.taken(),
        calib::REFERENCE_S * 1e3
    );
    println!(
        "  setup_s          {setup_s:.6} s  (median of {SETUP_REPS} set-ups; about {:.6} s on the CPU clock)",
        setup_s * setup_slowdown
    );
    println!("  peak_rss_mb      {rss:.1} MB  (set-up and the first pass)");
    println!(
        "  trials_per_s     {trials_per_s:.1} 1/s  ({trials} trials in {pass_s:.3} s; CPU clock {raw_trials_per_s:.1} 1/s)"
    );
    println!(
        "  job_ms_p50       {p50:.4} ms  (n={jobs}; CPU clock {:.4} ms)",
        median(&m.raw_job_ms)
    );
    println!(
        "  job_ms_tail      {tail_ms:.4} ms  (p{tail_pct:.2}, n={n}, 10 beyond; CPU clock {:.4} ms)",
        tail(&m.raw_job_ms).0
    );
    println!(
        "  failed_ratio     {:.6}  ({failed} of {} runs: {} job errors, {retries} trial retries, {} faulted; {} rejected fuzz candidates are input rejections)",
        failed as f64 / m.runs.max(1) as f64,
        m.runs,
        m.job_errors,
        all.faulted,
        all.rejected
    );
    if pass.campaigns.is_empty() {
        println!(
            "  leaks_confirmed  {} (exact, per pass)",
            exact.leaks_confirmed
        );
    } else {
        println!("  channel_accuracy {} (exact, sim)", exact.channel_accuracy);
        println!(
            "  sim_kbit_per_s   {} kbit/s (exact, sim)",
            exact.sim_kbit_per_s
        );
    }

    Ok(Outcome {
        attempted: m.runs.max(1) as u64,
        failed,
        metrics: [
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("trials_per_s", trials_per_s, "1/s"),
            ("job_ms_p50", p50, "ms"),
            ("job_ms_tail", tail_ms, "ms"),
        ]
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect(),
        error: m.error,
    })
}

/// Each per-layer metric: its unit, and the end-to-end metric and
/// workload it should move.
const LAYER_METRICS: [(&str, &str, &str); 39] = [
    (
        "kernel.boot.us",
        "us",
        "job_ms_p50, trials_per_s, setup_s @ campaign_short",
    ),
    (
        "kernel.boot_cache.hits",
        "count",
        "job_ms_p50, setup_s @ campaign_short",
    ),
    (
        "kernel.boot_cache.misses",
        "count",
        "setup_s @ campaign_short",
    ),
    (
        "pipeline.checkpoint.us",
        "us",
        "job_ms_p50, trials_per_s @ campaign_short",
    ),
    (
        "mem.fork.us",
        "us",
        "job_ms_p50, trials_per_s @ campaign_short",
    ),
    ("mem.rewind.us", "us", "trials_per_s @ campaign_long"),
    ("mem.cow_faults", "count", "trials_per_s @ campaign_long"),
    (
        "mem.rewind_journal_frames",
        "count",
        "trials_per_s @ campaign_long",
    ),
    (
        "mem.frame_pool_reuses",
        "count",
        "trials_per_s @ campaign_long",
    ),
    ("sidechannel.arm.us", "us", "trials_per_s @ campaign_long"),
    (
        "sidechannel.probe_rearms",
        "count",
        "trials_per_s @ campaign_long",
    ),
    ("core.decode.self_us", "us", "trials_per_s @ campaign_long"),
    ("core.probe.us", "us", "trials_per_s @ campaign_long"),
    ("core.probe.calls", "count", "trials_per_s @ campaign_long"),
    (
        "pipeline.host_ns_per_inst",
        "ns",
        "trials_per_s @ campaign_long",
    ),
    (
        "pipeline.inst_retired",
        "count",
        "trials_per_s @ campaign_long",
    ),
    ("pipeline.cycles", "count", "trials_per_s @ campaign_long"),
    (
        "pipeline.resteer_frontend",
        "count",
        "trials_per_s @ campaign_long",
    ),
    ("bpu.mispredict", "count", "trials_per_s @ campaign_long"),
    ("cache.icache_miss", "count", "trials_per_s @ campaign_long"),
    ("cache.dcache_miss", "count", "trials_per_s @ campaign_long"),
    ("mem.tlb.hits", "count", "trials_per_s @ campaign_long"),
    ("mem.tlb.misses", "count", "trials_per_s @ campaign_long"),
    (
        "pipeline.trace.hits",
        "count",
        "trials_per_s @ campaign_long",
    ),
    (
        "pipeline.trace.bailouts",
        "count",
        "trials_per_s @ campaign_long",
    ),
    (
        "pipeline.decode_cache.hits",
        "count",
        "trials_per_s @ campaign_long",
    ),
    (
        "pipeline.decode_cache.misses",
        "count",
        "trials_per_s @ campaign_long",
    ),
    (
        "core.attacks.pht_job.us",
        "us",
        "job_ms_tail @ campaign_long, campaign_short",
    ),
    ("core.report.encode.us", "us", "job_ms_p50 @ campaign_short"),
    (
        "isa.assemble.us",
        "us",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "isa.accept_ratio",
        "ratio",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "pipeline.machine_new.us",
        "us",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "discover.generate.us",
        "us",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "discover.run_case.us",
        "us",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "discover.minimize.us",
        "us",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "gf2.oracle.us",
        "us",
        "trials_per_s, job_ms_tail @ discover",
    ),
    (
        "discover.leak_ratio",
        "ratio",
        "trials_per_s, job_ms_tail @ discover",
    ),
    ("unattributed.us", "us", "job_ms_p50 @ every workload"),
    (
        "trace_overhead",
        "x",
        "none: traced over untraced wall, same worker count",
    ),
];

/// Span names behind the per-trial self-time metrics.
const SELF_TIMES: [(&str, &str); 15] = [
    ("kernel.boot.us", "kernel.boot"),
    ("pipeline.checkpoint.us", "pipeline.checkpoint"),
    ("mem.fork.us", "mem.fork"),
    ("mem.rewind.us", "mem.rewind"),
    ("sidechannel.arm.us", "sidechannel.arm"),
    ("core.decode.self_us", "core.decode"),
    ("core.attacks.pht_job.us", "core.attacks.pht_job"),
    ("core.report.encode.us", "core.report.encode"),
    ("isa.assemble.us", "isa.assemble"),
    ("pipeline.machine_new.us", "pipeline.machine_new"),
    ("discover.generate.us", "discover.generate"),
    ("discover.run_case.us", "discover.run_case"),
    ("discover.minimize.us", "discover.minimize"),
    ("gf2.oracle.us", "gf2.oracle"),
    ("unattributed.us", "job"),
];

fn layer_value(
    name: &str,
    tracer: &Tracer,
    counts: &Counts,
    trials: f64,
    passes: f64,
    overhead: f64,
) -> f64 {
    let per_trial_us = |span: &str| tracer.layer(span).self_ns as f64 / 1e3 / (trials * passes);
    let count = |c: &str| counts.get(c).copied().unwrap_or(0) as f64;
    if let Some((_, span)) = SELF_TIMES.iter().find(|(n, _)| *n == name) {
        return per_trial_us(span);
    }
    let probe = tracer.layer("core.probe");
    match name {
        "core.probe.us" => probe.total_ns as f64 / 1e3 / (probe.calls.max(1) as f64),
        "pipeline.host_ns_per_inst" => {
            probe.total_ns as f64 / (count("pipeline.inst_retired") * passes).max(1.0)
        }
        "isa.accept_ratio" => count("isa.accepted") / trials,
        "discover.leak_ratio" => count("discover.leaks") / trials,
        "trace_overhead" => overhead,
        _ => count(name),
    }
}

fn run_traced(args: &Args, slot: u64) -> Result<Outcome, String> {
    let (pass, _, _) = setup(args.workload, slot, &mut Calibrator::new())?;
    let pass = pass.traced();
    let expected = Expected::load(args.workload.name(), slot)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();

    // Untraced passes (the program's own entry points, at the one
    // worker the re-drive uses) alternate with traced passes, so both
    // see the same host; each job keeps its fastest run on either side.
    let runner = TrialRunner::with_threads(WORKERS);
    let jobs = pass.items.len();
    let mut untraced: Vec<String> = Vec::with_capacity(jobs);
    let mut untraced_best = vec![f64::INFINITY; jobs];
    let mut traced_best = vec![f64::INFINITY; jobs];
    let mut tracer = Tracer::default();
    let mut first_counts: Option<Counts> = None;
    let mut passes = 0u64;
    let mut error = None;
    while passes < 2 || start.elapsed() < budget {
        let mut digest = PassDigest::default();
        for (index, item) in pass.items.iter().enumerate() {
            let t = Instant::now();
            let record = run_item(&pass, item, &runner)
                .map_err(|e| format!("{} failed: {e}", pass.describe(index)))?;
            untraced_best[index] = untraced_best[index].min(t.elapsed().as_secs_f64() * 1e3);
            digest.push(&record);
            if passes == 0 {
                untraced.push(record);
            }
        }
        if let Err(first) = expected.check_prefix(&digest) {
            return Err(format!(
                "output differs from the golden digest at {}",
                pass.describe(first)
            ));
        }

        let traced = trace::run_pass(&pass, &mut tracer)?;
        passes += 1;
        for (best, ms) in traced_best.iter_mut().zip(&traced.item_ms) {
            *best = best.min(*ms);
        }
        if let Some(i) = (0..jobs).find(|&i| traced.records.get(i) != Some(&untraced[i])) {
            error = Some(format!(
                "traced re-drive does not reproduce the untraced record of {}; per-layer numbers rejected",
                pass.describe(i)
            ));
            break;
        }
        match &first_counts {
            None => first_counts = Some(traced.counts),
            Some(first) => {
                if let Some((name, v)) =
                    first.iter().find(|(k, v)| traced.counts.get(*k) != Some(v))
                {
                    error = Some(format!(
                        "count {name} did not repeat: {v} then {:?} on the same seed",
                        traced.counts.get(name)
                    ));
                    break;
                }
            }
        }
    }
    let counts = first_counts.unwrap_or_default();
    let trials = pass.total_trials() as f64;
    let untraced_s = untraced_best.iter().sum::<f64>() / 1e3;
    let traced_s = traced_best.iter().sum::<f64>() / 1e3;
    let overhead = traced_s / untraced_s;

    println!(
        "traced {} slot {slot}: {passes} traced passes of {jobs} jobs / {trials} trials, alternating with untraced ones",
        args.workload.name(),
    );
    println!("  sum of per-job fastest runs: untraced {untraced_s:.3} s, traced {traced_s:.3} s");
    println!("  times are self time per trial unless noted; counts are per pass");
    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit, moves) in LAYER_METRICS {
        let value = layer_value(name, &tracer, &counts, trials, passes as f64, overhead);
        println!("  {name:<30} {value:>16.4} {unit:<5}  moves {moves}");
        metrics.push(Metric { name, value, unit });
    }
    Ok(Outcome {
        attempted: (jobs as u64) * passes * 2,
        failed: runner.trial_retries() + Exact::of(&untraced)?.faulted,
        metrics,
        error,
    })
}

fn write_golden() -> Result<(), String> {
    let mut text = String::from(
        "# phantom-perfbench golden digests: <workload> <slot> <pass digest> <record tags>\n\
         # Regenerate with --write-golden (see README.md).\n",
    );
    for workload in Workload::ALL {
        let runner = TrialRunner::with_threads(WORKERS);
        for slot in 0..SLOTS {
            let pass = Pass::expand(workload, slot);
            let mut digest = PassDigest::default();
            for record in workloads::canonical_records(&pass, &runner)? {
                digest.push(&record);
            }
            if digest.len() != pass.items.len() {
                return Err(format!(
                    "{} slot {slot}: {} records for {} jobs",
                    workload.name(),
                    digest.len(),
                    pass.items.len()
                ));
            }
            text.push_str(&digest.line(workload.name(), slot));
            eprintln!("golden: {} slot {slot} done", workload.name());
        }
    }
    std::fs::write(golden::GOLDEN_PATH, text).map_err(|e| format!("write golden.txt: {e}"))
}

fn json_result(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let command = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = pinned() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let args = match command {
        Command::WriteGolden => {
            return match write_golden() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Run(args) => args,
    };
    let slot = args.seed % SLOTS;
    println!("{}", host_descriptor());
    let outcome = if args.trace {
        run_traced(&args, slot)
    } else {
        run_untraced(&args, slot)
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Outside the timed region: the program must still reproduce the
    // committed bench snapshot.
    if outcome.error.is_none() {
        if let Err(e) = check_snapshot() {
            outcome.error = Some(e);
        }
    }
    let nonfinite = outcome.metrics.iter().find(|m| !m.value.is_finite());
    if let (None, Some(m)) = (&outcome.error, nonfinite) {
        outcome.error = Some(format!("metric {} is not a number", m.name));
    }
    let correct = outcome.error.is_none();
    match &outcome.error {
        Some(e) => eprintln!("INCORRECT: {e}"),
        None => println!("correct: every record matched its golden digest; bench snapshot matched BENCH_phantom.json"),
    }
    if outcome.metrics.iter().all(|m| m.value.is_finite()) {
        println!("{}", json_result(correct, &outcome));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
