//! The three workloads, their inputs, their set-up, and the untraced
//! calls into the program that the end-to-end metrics time.
//!
//! Every workload is a fixed *pass* of jobs, a pure function of the
//! seed slot. A run repeats its pass until the time budget is spent;
//! every record of every repetition is checked against the golden
//! digests.

use phantom::report::value::{parse, JsonValue};
use phantom::runner::{trial_seed, TrialRunner};
use phantom::{UarchProfile, UarchRegistry};
use phantom_bench::campaign::{jobs, run_campaign, run_job, CampaignConfig, Job};
use phantom_bench::discover::{discover_jsonl, run_discover_on, DiscoverConfig};
use phantom_kernel::{BootCache, System};

/// Seed slots with golden digests: `--seed n` runs the inputs of slot
/// `n % SLOTS`.
pub const SLOTS: u64 = 16;
/// Bits per job on `campaign_long`.
const LONG_BITS: usize = 512;
/// Successive campaign seeds in one `campaign_long` pass.
const LONG_CAMPAIGNS: usize = 2;
/// Bits per job on `campaign_short`.
const SHORT_BITS: usize = 8;
/// Successive campaign seeds in one `campaign_short` pass.
const SHORT_CAMPAIGNS: usize = 8;
/// Discover runs in one `discover` pass.
const DISCOVER_JOBS: usize = 192;
/// Discover runs a traced run re-drives: the first of the pass, so
/// that its rounds of untraced and traced passes end well within the
/// benchmark's time limit.
const TRACED_DISCOVER_JOBS: usize = 96;
/// Fuzz cases (the trial budget) of one discover run.
pub const DISCOVER_BUDGET: usize = 32;
/// Physical memory of the receiver system every channel job boots.
const CAMPAIGN_PHYS: u64 = 1 << 30;

/// A named workload. Every workload runs the program at one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default campaign grid with long jobs over successive
    /// campaign seeds.
    CampaignLong,
    /// The default campaign grid with 8-bit jobs over successive
    /// campaign seeds.
    CampaignShort,
    /// The `discover` fuzzer.
    Discover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignLong,
        Workload::CampaignShort,
        Workload::Discover,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignLong => "campaign_long",
            Workload::CampaignShort => "campaign_short",
            Workload::Discover => "discover",
        }
    }

    /// Inverse of [`name`](Workload::name).
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::CampaignLong => 0x6c6f_6e67,
            Workload::CampaignShort => 0x7368_6f72,
            Workload::Discover => 0x6469_7363,
        }
    }
}

/// One call into the program, and the identity a mismatch names.
#[derive(Debug, Clone)]
pub enum Item {
    /// A campaign job of `Pass::campaigns[campaign]`.
    Job {
        /// Index into [`Pass::campaigns`].
        campaign: usize,
        /// The job.
        job: Box<Job>,
    },
    /// A `discover` run of `DISCOVER_BUDGET` fuzz cases.
    Fuzz {
        /// Position in the pass.
        index: usize,
        /// The run's base seed.
        seed: u64,
    },
}

/// The fixed inputs of one workload for one seed slot.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Which workload.
    pub workload: Workload,
    /// The campaigns jobs belong to (empty for `discover`).
    pub campaigns: Vec<CampaignConfig>,
    /// The calls, in record order.
    pub items: Vec<Item>,
}

impl Pass {
    /// Compile the uarch registry and expand the pass's jobs. Pure in
    /// `(workload, slot)`.
    pub fn expand(workload: Workload, slot: u64) -> Pass {
        let base = trial_seed(workload.salt(), slot as usize);
        let registry = UarchRegistry::with_builtins();
        let (bits, count) = match workload {
            Workload::CampaignLong => (LONG_BITS, LONG_CAMPAIGNS),
            Workload::CampaignShort => (SHORT_BITS, SHORT_CAMPAIGNS),
            Workload::Discover => {
                let items = (0..DISCOVER_JOBS)
                    .map(|index| Item::Fuzz {
                        index,
                        seed: trial_seed(base, index),
                    })
                    .collect();
                return Pass {
                    workload,
                    campaigns: Vec::new(),
                    items,
                };
            }
        };
        let campaigns: Vec<CampaignConfig> = (0..count)
            .map(|k| {
                let mut cfg = CampaignConfig::default_grid(&registry);
                cfg.bits = bits;
                cfg.seed = trial_seed(base, k);
                cfg
            })
            .collect();
        let items = campaigns
            .iter()
            .enumerate()
            .flat_map(|(campaign, cfg)| {
                jobs(cfg).into_iter().map(move |job| Item::Job {
                    campaign,
                    job: Box::new(job),
                })
            })
            .collect();
        Pass {
            workload,
            campaigns,
            items,
        }
    }

    /// The pass a traced run re-drives: the whole pass, except on
    /// `discover`, where it is the first `TRACED_DISCOVER_JOBS` runs.
    pub fn traced(mut self) -> Pass {
        if self.workload == Workload::Discover {
            self.items.truncate(TRACED_DISCOVER_JOBS);
        }
        self
    }

    /// Trials (transferred bits, or fuzz cases) one item runs.
    pub fn trials(&self, item: &Item) -> usize {
        match item {
            Item::Job { campaign, .. } => self.campaigns[*campaign].bits,
            Item::Fuzz { .. } => DISCOVER_BUDGET,
        }
    }

    /// Trials in the whole pass.
    pub fn total_trials(&self) -> usize {
        self.items.iter().map(|i| self.trials(i)).sum()
    }

    /// The name a mismatch report gives record `index`.
    pub fn describe(&self, index: usize) -> String {
        match self.items.get(index) {
            Some(Item::Job { campaign, job }) => format!(
                "job {} (index {}) of campaign seed {}",
                job.id, job.index, self.campaigns[*campaign].seed
            ),
            Some(Item::Fuzz { index, seed }) => format!("discover run {index} (seed {seed})"),
            None => format!("record {index} (past the golden pass)"),
        }
    }

    /// The distinct uarch profiles the pass's channel jobs boot.
    fn profiles(&self) -> Vec<UarchProfile> {
        let mut out: Vec<UarchProfile> = Vec::new();
        for cfg in &self.campaigns {
            for (_, profile) in &cfg.uarches {
                if !out.contains(profile) {
                    out.push(profile.clone());
                }
            }
        }
        out
    }

    /// Fill a boot cache with one template per uarch the pass boots:
    /// the process-global cache `System::new_cached` serves, or a
    /// fresh private one (the same work, repeated to time set-up).
    pub fn fill_boot_cache(&self, global: bool) -> Result<(), String> {
        let private = BootCache::new();
        for profile in self.profiles() {
            let booted = if global {
                System::new_cached(profile, CAMPAIGN_PHYS, 0)
            } else {
                private.boot(profile, CAMPAIGN_PHYS, 0)
            };
            booted.map_err(|e| format!("boot-cache fill failed: {e}"))?;
        }
        Ok(())
    }
}

/// Run one item through the program's own entry point and return its
/// JSONL text: `campaign::run_job` plus the record encoding
/// `run_campaign` streams, or a `discover` run rendered by
/// `discover_jsonl` as `repro discover` writes it.
pub fn run_item(pass: &Pass, item: &Item, runner: &TrialRunner) -> Result<String, String> {
    match item {
        Item::Job { campaign, job } => {
            let record = run_job(runner, &pass.campaigns[*campaign], job)
                .map_err(|e| format!("job {}: {e}", job.id))?;
            let mut line = record.to_compact_string();
            line.push('\n');
            Ok(line)
        }
        Item::Fuzz { index, seed } => {
            let cfg = DiscoverConfig {
                budget: DISCOVER_BUDGET,
                seed: *seed,
            };
            let report =
                run_discover_on(runner, cfg).map_err(|e| format!("discover run {index}: {e}"))?;
            Ok(discover_jsonl(&report))
        }
    }
}

/// The pass's records as the program's canonical commands emit them:
/// `run_campaign` streams for campaigns; `discover_jsonl` of each
/// run for `discover`. The golden digests are taken from this.
pub fn canonical_records(pass: &Pass, runner: &TrialRunner) -> Result<Vec<String>, String> {
    if pass.workload == Workload::Discover {
        return pass
            .items
            .iter()
            .map(|item| run_item(pass, item, runner))
            .collect();
    }
    let mut records = Vec::new();
    for cfg in &pass.campaigns {
        let mut buf = Vec::new();
        run_campaign(runner, cfg, 0, &mut buf, &mut |_, _, _| {})
            .map_err(|e| format!("campaign seed {}: {e}", cfg.seed))?;
        let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
        records.extend(text.split_inclusive('\n').map(str::to_string));
    }
    Ok(records)
}

/// The exact simulated outputs of a pass's records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    /// Mean decoded accuracy over campaign jobs.
    pub channel_accuracy: f64,
    /// Bits over simulated seconds, summed over campaign jobs, in
    /// kbit/s.
    pub sim_kbit_per_s: f64,
    /// Discover findings the GF(2) oracle confirmed.
    pub leaks_confirmed: u64,
    /// Discover cases that faulted.
    pub faulted: u64,
    /// Discover cases the assembler rejected (input rejections, not
    /// failures).
    pub rejected: u64,
}

impl Exact {
    /// Fold the records of one pass.
    pub fn of(records: &[String]) -> Result<Exact, String> {
        let mut exact = Exact::default();
        let (mut jobs, mut accuracy, mut bits, mut seconds) = (0u64, 0.0, 0.0, 0.0);
        for text in records {
            for line in text.lines() {
                let v = parse(line).map_err(|e| format!("unparseable record: {e}"))?;
                let num = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
                let count = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
                match v.get("kind").and_then(JsonValue::as_str) {
                    Some("campaign") => {
                        jobs += 1;
                        accuracy += num("accuracy");
                        bits += num("bits");
                        seconds += num("seconds");
                    }
                    Some("discover") => {
                        if v.get("oracle").and_then(JsonValue::as_bool) == Some(true) {
                            exact.leaks_confirmed += 1;
                        }
                    }
                    Some("discover-summary") => {
                        exact.faulted += count("faulted");
                        exact.rejected += count("rejected");
                    }
                    _ => return Err(format!("record of unknown kind: {line}")),
                }
            }
        }
        if jobs > 0 {
            exact.channel_accuracy = accuracy / jobs as f64;
            exact.sim_kbit_per_s = bits / seconds / 1e3;
        }
        Ok(exact)
    }
}
