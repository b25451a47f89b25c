//! Machine-readable results: typed records for every shipped
//! experiment, a top-level [`BenchSnapshot`], and a tolerance-driven
//! [`diff`] for regression gating.
//!
//! Every record mirrors one experiment's output with owned fields, so
//! a snapshot parsed from disk is self-contained (no `&'static str`
//! interning against the running binary).
//!
//! Each record is declared once, through the `record!` macro: one line
//! per field, from which the struct, `to_json`, `from_json` and the
//! field's absent-key rule are all derived. Every field type has one
//! JSON codec (`JsonField`: strings, integers, floats, bools, `Option`,
//! `Vec` and nested records). `to_json` writes members in declaration
//! order, which together with the deterministic [`JsonValue`] writer
//! makes snapshot bytes a pure function of the results — the
//! determinism suite asserts byte-identity across thread counts on
//! exactly this property. `from_json` requires every field unless the
//! field line ends in a marker:
//!
//! * `[lenient]` — an absent key decodes as the type's `Default`, so
//!   baselines recorded before the field existed keep loading. A
//!   present key of the wrong type is still an error.
//! * `[optional]` (on an `Option<T>` field) — `None` omits the key, and
//!   an absent or `null` key decodes as `None`.
//!
//! Unknown keys are ignored, so baselines that carry retired fields
//! keep loading. Decode errors name the path to the bad member, e.g.
//! `.table2[0].probes: expected a u64`.
//!
//! The canonical snapshot contains **only deterministic data**
//! (simulated cycles, accuracies, counters). Host-volatile facts —
//! wall-clock, thread count — live in the optional `host` section,
//! which [`diff`] ignores.

use std::fmt;

use crate::ablation::NoiseSweepPoint;
use crate::attacks::{
    KaslrImageResult, MdsLeakResult, PhtChannelResult, PhysAddrResult, PhysmapResult,
};
use crate::collide::Figure7;
use crate::covert::CovertResult;
use crate::experiment::{ComboOutcome, Figure6Point, Table1Cell};
use crate::gadgets::GadgetCensus;
use crate::mitigations::OverheadResult;

use super::value::{parse, JsonValue, ParseError};

/// The snapshot schema identifier; bump on breaking shape changes.
pub const SCHEMA: &str = "phantom-bench/v1";

/// A shape error while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl SchemaError {
    /// Prefix the error's member path with `seg` (`.key` or `[i]`).
    fn at(self, seg: &str) -> SchemaError {
        let sep = if self.0.starts_with(['.', '[']) {
            ""
        } else {
            ": "
        };
        SchemaError(format!("{seg}{sep}{}", self.0))
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

impl From<ParseError> for SchemaError {
    fn from(e: ParseError) -> SchemaError {
        SchemaError(e.to_string())
    }
}

/// The JSON codec of one record field type.
pub(crate) trait JsonField: Sized {
    fn encode(&self) -> JsonValue;
    fn decode(v: &JsonValue) -> Result<Self, SchemaError>;
}

macro_rules! scalar_fields {
    ($($ty:ty => $variant:ident, $get:expr, $what:literal;)*) => {$(
        impl JsonField for $ty {
            fn encode(&self) -> JsonValue {
                JsonValue::$variant(self.to_owned())
            }

            fn decode(v: &JsonValue) -> Result<$ty, SchemaError> {
                ($get)(v).ok_or_else(|| SchemaError(concat!("expected ", $what).into()))
            }
        }
    )*};
}

scalar_fields! {
    String => Str, |v: &JsonValue| v.as_str().map(String::from), "a string";
    u64 => Uint, JsonValue::as_u64, "a u64";
    i64 => Int, JsonValue::as_i64, "an i64";
    f64 => Float, JsonValue::as_f64, "a number";
    bool => Bool, JsonValue::as_bool, "a bool";
}

impl<T: JsonField> JsonField for Vec<T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(T::encode).collect())
    }

    fn decode(v: &JsonValue) -> Result<Vec<T>, SchemaError> {
        let items = v
            .as_array()
            .ok_or_else(|| SchemaError("expected an array".into()))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::decode(item).map_err(|e| e.at(&format!("[{i}]"))))
            .collect()
    }
}

/// `None` is `null`. (An `[optional]` record field omits the key
/// instead.)
impl<T: JsonField> JsonField for Option<T> {
    fn encode(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::encode)
    }

    fn decode(v: &JsonValue) -> Result<Option<T>, SchemaError> {
        if v.is_null() {
            return Ok(None);
        }
        T::decode(v).map(Some)
    }
}

/// Decode the required member `key` of object `v`.
pub(crate) fn required<T: JsonField>(v: &JsonValue, key: &str) -> Result<T, SchemaError> {
    let member = v
        .get(key)
        .ok_or_else(|| SchemaError("missing".into()).at(&format!(".{key}")))?;
    T::decode(member).map_err(|e| e.at(&format!(".{key}")))
}

/// Decode the member `key` of object `v`, or `T::default()` if absent.
pub(crate) fn lenient<T: JsonField + Default>(v: &JsonValue, key: &str) -> Result<T, SchemaError> {
    match v.get(key) {
        Some(member) => T::decode(member).map_err(|e| e.at(&format!(".{key}"))),
        None => Ok(T::default()),
    }
}

/// Reject a record that is not a JSON object.
pub(crate) fn check_object(v: &JsonValue) -> Result<(), SchemaError> {
    match v {
        JsonValue::Object(_) => Ok(()),
        _ => Err(SchemaError("expected an object".into())),
    }
}

/// Reject a document whose `schema` member is not `schema`.
pub(crate) fn check_schema(v: &JsonValue, schema: &str) -> Result<(), SchemaError> {
    let found: String = required(v, "schema")?;
    if found != schema {
        return Err(SchemaError(format!(
            "unknown schema {found:?} (expected {schema:?})"
        )));
    }
    Ok(())
}

/// Declare a snapshot record: the struct (doc comments and derives
/// pass through), `to_json`/`from_json` and its [`JsonField`] codec,
/// all from one field list. A field line may end in `[lenient]` or
/// `[optional]` (see the module docs). A leading `schema = EXPR;`
/// writes a `"schema"` member first and rejects any other value on
/// decode.
macro_rules! record {
    (@encode $o:ident, $key:expr, $val:expr) => {{
        $o.set($key, $crate::report::json::JsonField::encode(&$val));
    }};
    (@encode $o:ident, $key:expr, $val:expr, lenient) => {
        $crate::report::json::record!(@encode $o, $key, $val)
    };
    (@encode $o:ident, $key:expr, $val:expr, optional) => {
        if let Some(x) = &$val {
            $crate::report::json::record!(@encode $o, $key, *x)
        }
    };
    (@decode $v:ident, $key:expr) => {
        $crate::report::json::required($v, $key)?
    };
    // `lenient` and `optional` decode alike: an absent key is `Default`,
    // which for `Option` is `None` (and its codec reads `null` as `None`).
    (@decode $v:ident, $key:expr, $mode:ident) => {
        $crate::report::json::lenient($v, $key)?
    };
    (
        $(schema = $schema:expr;)?
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty $([$mode:ident])?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Encode as a JSON object, members in declaration order.
            pub fn to_json(&self) -> $crate::report::value::JsonValue {
                let mut o = $crate::report::value::JsonValue::object();
                $(o.set("schema", $crate::report::value::JsonValue::Str($schema.into()));)?
                $($crate::report::json::record!(
                    @encode o, stringify!($field), self.$field $(, $mode)?
                );)*
                o
            }

            /// Decode from a JSON object.
            ///
            /// # Errors
            ///
            /// Returns a [`SchemaError`](crate::report::json::SchemaError)
            /// naming the offending member on a shape mismatch.
            pub fn from_json(
                v: &$crate::report::value::JsonValue,
            ) -> Result<$name, $crate::report::json::SchemaError> {
                $crate::report::json::check_object(v)?;
                $($crate::report::json::check_schema(v, $schema)?;)?
                Ok($name {
                    $($field: $crate::report::json::record!(
                        @decode v, stringify!($field) $(, $mode)?
                    ),)*
                })
            }
        }

        impl $crate::report::json::JsonField for $name {
            fn encode(&self) -> $crate::report::value::JsonValue {
                self.to_json()
            }

            fn decode(
                v: &$crate::report::value::JsonValue,
            ) -> Result<$name, $crate::report::json::SchemaError> {
                $name::from_json(v)
            }
        }
    };
}

pub(crate) use record;

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

record! {
    /// Run metadata that is part of the canonical (deterministic) output.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RunMeta {
        /// Protocol size: `"quick"` or `"full"` (`PHANTOM_FULL=1`).
        pub profile: String,
        /// The base seed the experiment seeds derive from.
        pub seed: u64,
    }
}

record! {
    /// One Table 1 cell: deepest stage per microarchitecture for a
    /// training × victim combination.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Table1Record {
        /// Training instruction (display form, e.g. `"jmp*"`).
        pub train: String,
        /// Victim instruction (display form).
        pub victim: String,
        /// Deepest stage per microarchitecture, in sweep order.
        pub stages: Vec<Table1Stage>,
    }
}

record! {
    /// The deepest stage one microarchitecture reached in a Table 1 cell.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Table1Stage {
        /// Microarchitecture name.
        pub uarch: String,
        /// `-`, `IF`, `ID` or `EX`.
        pub stage: String,
    }
}

impl From<&Table1Cell> for Table1Record {
    fn from(c: &Table1Cell) -> Table1Record {
        Table1Record {
            train: c.train.to_string(),
            victim: c.victim.to_string(),
            stages: c
                .stages
                .iter()
                .map(|(u, s)| Table1Stage {
                    uarch: u.to_string(),
                    stage: s.to_string(),
                })
                .collect(),
        }
    }
}

record! {
    /// One Figure 6 sweep on one microarchitecture.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Figure6Record {
        /// Microarchitecture name.
        pub uarch: String,
        /// Page-offset step of the sweep.
        pub step: u64,
        /// The swept points.
        pub points: Vec<Figure6Point>,
    }
}

record! {
    /// The Figure 7 recovery: BTB index/tag functions as bit masks.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Figure7Record {
        /// Collision samples used per kernel address.
        pub samples_per_address: u64,
        /// Recovered function masks (bit `i` set ⇔ address bit `i` is an
        /// input of the XOR).
        pub masks: Vec<u64>,
        /// Whether the paper's published XOR patterns hold.
        pub paper_patterns_hold: bool,
    }
}

impl From<&Figure7> for Figure7Record {
    fn from(f: &Figure7) -> Figure7Record {
        Figure7Record {
            samples_per_address: f.samples_per_address as u64,
            masks: f.functions.iter().map(|f| f.mask).collect(),
            paper_patterns_hold: f.paper_patterns_hold,
        }
    }
}

record! {
    /// One Table 2 covert-channel row. The decoder fields (`probes`,
    /// `abstentions`, `mean_confidence`) are lenient so baselines
    /// recorded before the adaptive decoder keep loading.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CovertRecord {
        /// Microarchitecture name.
        pub uarch: String,
        /// Retail part tested in the paper.
        pub model: String,
        /// Channel kind (display form: `"fetch (P1)"` / `"execute (P2)"`).
        pub kind: String,
        /// Bits transferred.
        pub bits: u64,
        /// Fraction decoded correctly.
        pub accuracy: f64,
        /// Total probes the adaptive decoder spent.
        pub probes: u64 [lenient],
        /// Bits the decoder abstained on.
        pub abstentions: u64 [lenient],
        /// Mean decode confidence across the transfer.
        pub mean_confidence: f64 [lenient],
        /// Simulated seconds for the transfer.
        pub seconds: f64,
        /// Simulated channel rate.
        pub bits_per_sec: f64,
    }
}

impl From<&CovertResult> for CovertRecord {
    fn from(r: &CovertResult) -> CovertRecord {
        CovertRecord {
            uarch: r.uarch.to_string(),
            model: r.model.to_string(),
            kind: r.kind.to_string(),
            bits: r.bits as u64,
            accuracy: r.accuracy,
            probes: r.probes,
            abstentions: r.abstentions as u64,
            mean_confidence: r.mean_confidence,
            seconds: r.seconds,
            bits_per_sec: r.bits_per_sec,
        }
    }
}

record! {
    /// One PHT-channel (BranchSpectre-style) row: Table-2-shaped numbers
    /// for the conditional-branch-predictor channel, plus the
    /// out-of-place flip the scheme admitted.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhtChannelRecord {
        /// Microarchitecture name.
        pub uarch: String,
        /// Retail part tested in the paper.
        pub model: String,
        /// XOR distance between victim and probe PC.
        pub flip_mask: u64,
        /// Bits recovered.
        pub bits: u64,
        /// Fraction decoded correctly.
        pub accuracy: f64,
        /// Total probes the adaptive decoder spent.
        pub probes: u64,
        /// Bits the decoder abstained on.
        pub abstentions: u64,
        /// Mean decode confidence across the recovery.
        pub mean_confidence: f64,
        /// Simulated seconds for the recovery.
        pub seconds: f64,
        /// Simulated channel rate.
        pub bits_per_sec: f64,
    }
}

impl From<&PhtChannelResult> for PhtChannelRecord {
    fn from(r: &PhtChannelResult) -> PhtChannelRecord {
        PhtChannelRecord {
            uarch: r.uarch.to_string(),
            model: r.model.to_string(),
            flip_mask: r.flip_mask,
            bits: r.bits as u64,
            accuracy: r.accuracy,
            probes: r.probes,
            abstentions: r.abstentions as u64,
            mean_confidence: r.mean_confidence,
            seconds: r.seconds,
            bits_per_sec: r.bits_per_sec,
        }
    }
}

record! {
    /// One KASLR-style run: used for both Table 3 (kernel image) and
    /// Table 4 (physmap), whose result shapes are identical.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlotRunRecord {
        /// The attacker's best guess.
        pub guessed_slot: u64,
        /// Ground truth.
        pub actual_slot: u64,
        /// Whether the guess was right.
        pub correct: bool,
        /// The winning score.
        pub best_score: i64,
        /// How decisively the winner beat the runner-up, in `[0, 1]`
        /// (lenient: baselines recorded before the field keep loading).
        pub confidence: f64 [lenient],
        /// Simulated cycles consumed.
        pub cycles: u64,
        /// Simulated seconds consumed.
        pub seconds: f64,
    }
}

impl From<&KaslrImageResult> for SlotRunRecord {
    fn from(r: &KaslrImageResult) -> SlotRunRecord {
        SlotRunRecord {
            guessed_slot: r.guessed_slot,
            actual_slot: r.actual_slot,
            correct: r.correct,
            best_score: r.best_score,
            confidence: r.confidence,
            cycles: r.cycles,
            seconds: r.seconds,
        }
    }
}

impl From<&PhysmapResult> for SlotRunRecord {
    fn from(r: &PhysmapResult) -> SlotRunRecord {
        SlotRunRecord {
            guessed_slot: r.guessed_slot,
            actual_slot: r.actual_slot,
            correct: r.correct,
            best_score: r.best_score,
            confidence: r.confidence,
            cycles: r.cycles,
            seconds: r.seconds,
        }
    }
}

record! {
    /// Table 3 / Table 4 rows for one microarchitecture.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlotTableRecord {
        /// Microarchitecture name.
        pub uarch: String,
        /// Per-reboot runs.
        pub runs: Vec<SlotRunRecord>,
    }
}

impl SlotTableRecord {
    /// Fraction of correct runs.
    pub fn accuracy(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.correct).count() as f64 / self.runs.len() as f64
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

record! {
    /// One Table 5 physical-address search run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhysAddrRunRecord {
        /// The attacker's guess (`None`, written as `null`, if the
        /// search came up empty).
        pub guessed_pa: Option<u64>,
        /// Ground truth.
        pub actual_pa: u64,
        /// Whether the guess was right.
        pub correct: bool,
        /// Huge-page candidates tested.
        pub guesses_tested: u64,
        /// Confidence of the hit reload (0 when the scan came up empty;
        /// lenient: baselines recorded before the field keep loading).
        pub confidence: f64 [lenient],
        /// Simulated cycles consumed.
        pub cycles: u64,
        /// Simulated seconds consumed.
        pub seconds: f64,
    }
}

impl From<&PhysAddrResult> for PhysAddrRunRecord {
    fn from(r: &PhysAddrResult) -> PhysAddrRunRecord {
        PhysAddrRunRecord {
            guessed_pa: r.guessed_pa,
            actual_pa: r.actual_pa,
            correct: r.correct,
            guesses_tested: r.guesses_tested,
            confidence: r.confidence,
            cycles: r.cycles,
            seconds: r.seconds,
        }
    }
}

record! {
    /// Table 5 rows for one (microarchitecture, memory size) pair.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhysAddrTableRecord {
        /// Microarchitecture name.
        pub uarch: String,
        /// Simulated physical memory, in GiB.
        pub memory_gib: u64,
        /// Per-run results.
        pub runs: Vec<PhysAddrRunRecord>,
    }
}

impl PhysAddrTableRecord {
    /// Fraction of correct runs.
    pub fn accuracy(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.correct).count() as f64 / self.runs.len() as f64
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

record! {
    /// One §7.4 MDS leak run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MdsRunRecord {
        /// The leaked bytes, hex-encoded.
        pub leaked_hex: String,
        /// Fraction recovered exactly.
        pub accuracy: f64,
        /// Whether any signal was observed.
        pub signal: bool,
        /// Mean confidence of the per-byte hit reloads (lenient:
        /// baselines recorded before the field keep loading).
        pub mean_confidence: f64 [lenient],
        /// Simulated cycles consumed.
        pub cycles: u64,
        /// Simulated seconds consumed.
        pub seconds: f64,
        /// Simulated leak rate.
        pub bytes_per_sec: f64,
    }
}

impl From<&MdsLeakResult> for MdsRunRecord {
    fn from(r: &MdsLeakResult) -> MdsRunRecord {
        MdsRunRecord {
            leaked_hex: hex_encode(&r.leaked),
            accuracy: r.accuracy,
            signal: r.signal,
            mean_confidence: r.mean_confidence,
            cycles: r.cycles,
            seconds: r.seconds,
            bytes_per_sec: r.bytes_per_sec,
        }
    }
}

record! {
    /// §7.4 MDS leak runs for one microarchitecture.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MdsTableRecord {
        /// Microarchitecture name.
        pub uarch: String,
        /// Per-reboot runs.
        pub runs: Vec<MdsRunRecord>,
    }
}

impl MdsTableRecord {
    /// Mean per-run accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.accuracy).sum::<f64>() / self.runs.len() as f64
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

record! {
    /// Which pipeline stages an experiment's signal reached.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StageFlags {
        /// IF channel fired.
        pub fetched: bool,
        /// ID channel fired.
        pub decoded: bool,
        /// EX channel fired.
        pub executed: bool,
    }
}

impl From<&ComboOutcome> for StageFlags {
    fn from(o: &ComboOutcome) -> StageFlags {
        StageFlags {
            fetched: o.fetched,
            decoded: o.decoded,
            executed: o.executed,
        }
    }
}

record! {
    /// One O4 (`SuppressBPOnNonBr`) outcome.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct O4Record {
        /// Microarchitecture name.
        pub uarch: String,
        /// Stages reached with the bit clear.
        pub baseline: StageFlags,
        /// Stages reached with the bit set.
        pub suppressed: StageFlags,
    }
}

record! {
    /// The O5 (AutoIBRS) outcome.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct O5Record {
        /// Whether cross-privilege transient fetch was still observed.
        pub transient_fetch_observed: bool,
    }
}

record! {
    /// One §8.2 software-mitigation placement check.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SoftwareRecord {
        /// Mitigation name (`"lfence"`, `"rsb_stuffing"`, `"sls_padding"`).
        pub name: String,
        /// Microarchitecture the check ran on.
        pub uarch: String,
        /// Signal observed without the mitigation.
        pub unprotected: bool,
        /// Signal observed with the mitigation in place.
        pub protected: bool,
    }
}

record! {
    /// The §6.3 mitigation-overhead suite.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OverheadRecord {
        /// Per-workload cycle pairs.
        pub per_workload: Vec<OverheadWorkload>,
        /// Geometric-mean overhead, percent.
        pub geomean_overhead_pct: f64,
    }
}

record! {
    /// One workload of the §6.3 overhead suite.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OverheadWorkload {
        /// Workload name.
        pub workload: String,
        /// Simulated cycles with `SuppressBPOnNonBr` clear.
        pub baseline_cycles: u64,
        /// Simulated cycles with `SuppressBPOnNonBr` set.
        pub suppressed_cycles: u64,
    }
}

impl From<&OverheadResult> for OverheadRecord {
    fn from(r: &OverheadResult) -> OverheadRecord {
        OverheadRecord {
            per_workload: r
                .per_workload
                .iter()
                .map(
                    |&(name, baseline_cycles, suppressed_cycles)| OverheadWorkload {
                        workload: name.to_string(),
                        baseline_cycles,
                        suppressed_cycles,
                    },
                )
                .collect(),
            geomean_overhead_pct: r.geomean_overhead_pct,
        }
    }
}

record! {
    /// The §9.1 gadget census.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GadgetRecord {
        /// Conventional Spectre gadgets.
        pub spectre_gadgets: u64,
        /// Phantom-only single-load gadgets.
        pub mds_gadgets: u64,
        /// Total exploitable with Phantom.
        pub total_with_phantom: u64,
    }
}

impl From<&GadgetCensus> for GadgetRecord {
    fn from(c: &GadgetCensus) -> GadgetRecord {
        GadgetRecord {
            spectre_gadgets: c.spectre_gadgets as u64,
            mds_gadgets: c.mds_gadgets as u64,
            total_with_phantom: c.total_with_phantom as u64,
        }
    }
}

record! {
    /// One point of the noise sweep: the adaptive fetch channel under a
    /// single [`NoiseModel`](phantom_sidechannel::NoiseModel) knob.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NoiseSweepRecord {
        /// The swept knob: `"jitter_cycles"`, `"spurious_evict"` or
        /// `"missed_signal"`.
        pub axis: String,
        /// The knob value.
        pub value: f64,
        /// Channel accuracy at that point (abstentions count as wrong).
        pub accuracy: f64,
        /// Total probes the adaptive decoder spent.
        pub probes: u64,
        /// Bits the decoder abstained on.
        pub abstentions: u64,
        /// Mean decode confidence across the transfer.
        pub mean_confidence: f64,
    }
}

impl From<&NoiseSweepPoint> for NoiseSweepRecord {
    fn from(p: &NoiseSweepPoint) -> NoiseSweepRecord {
        NoiseSweepRecord {
            axis: p.axis.to_string(),
            value: p.value,
            accuracy: p.accuracy,
            probes: p.probes,
            abstentions: p.abstentions,
            mean_confidence: p.mean_confidence,
        }
    }
}

impl NoiseSweepRecord {
    /// Whether this is a quiet-end point (the knob at zero) — the
    /// points [`diff`] gates on.
    pub fn is_quiet(&self) -> bool {
        self.value == 0.0
    }
}

record! {
    /// Deterministic hot-path counters: the measured decode-cache, TLB
    /// and copy-on-write snapshot wins.
    ///
    /// Every counter comes from a fixed reference workload, so they are
    /// part of the canonical snapshot and diffable against a baseline —
    /// a hit-rate drop is a perf regression the gate can catch without
    /// trusting wall clocks. Counters introduced after the first
    /// baseline are lenient (absent ⇒ 0), and keys of retired counters
    /// (`trace_hits`, `trace_bailouts`, `trace_invalidations`) are
    /// ignored, so old baselines keep loading.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PerfRecord {
        /// Decode-cache hits on the reference workload.
        pub decode_cache_hits: u64,
        /// Decode-cache misses on the reference workload.
        pub decode_cache_misses: u64,
        /// Full decodes the cache eliminated (equals `hits`).
        pub decodes_avoided: u64,
        /// TLB hits on the reference workload (page walks skipped by the
        /// translation fast path).
        pub tlb_hits: u64 [lenient],
        /// TLB misses on the reference workload (page walks taken).
        pub tlb_misses: u64 [lenient],
        /// Frames unshared by a write after a checkpoint on the
        /// snapshot/restore reference workload.
        pub cow_faults: u64 [lenient],
        /// Frames still shared between the live memory and its snapshot at
        /// the end of the snapshot/restore reference workload.
        pub cow_frames_shared: u64 [lenient],
        /// Frames rewound by `restore` on the snapshot/restore reference
        /// workload (the O(dirty) restore cost).
        pub restore_frames_copied: u64 [lenient],
        /// Bounded probe retries the trial runner performed while
        /// collecting the snapshot (trials re-run on a fresh fork after a
        /// recoverable failure). Zero in a healthy run: a nonzero value
        /// means some scenario silently leaned on the retry path.
        pub trial_retries: u64 [lenient],
        /// Boots served from an existing template by the boot-cache
        /// reference workload (an isolated cache, so the counter does not
        /// depend on how many boots the global one served).
        pub boot_cache_hits: u64 [lenient],
        /// Dirty frames the journaled rewind visited on the
        /// snapshot/restore reference workload.
        pub rewind_journal_frames: u64 [lenient],
        /// Retired frame buffers the pool recycled into copy-on-write
        /// copies on the snapshot/restore reference workload.
        pub frame_pool_reuses: u64 [lenient],
        /// Probes re-armed over a standing arena mapping by the probe-arena
        /// reference workload.
        pub probe_arena_rearms: u64 [lenient],
    }
}

impl PerfRecord {
    /// Decode-cache hit fraction of the reference workload, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.decode_cache_hits + self.decode_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.decode_cache_hits as f64 / total as f64
    }

    /// TLB hit fraction of the reference workload, in `[0, 1]`.
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            return 0.0;
        }
        self.tlb_hits as f64 / total as f64
    }
}

record! {
    /// Host-volatile metadata. **Not** part of the canonical snapshot:
    /// only emitted on request, and always ignored by [`diff`], because
    /// wall-clock and thread count vary run to run. Keys of retired
    /// host fields (`decode_cache_wall`, `snapshot_wall`) are ignored.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HostMeta {
        /// Worker threads the trial runner used.
        pub threads: u64,
        /// Host wall-clock per experiment.
        pub wall_seconds: Vec<ExperimentWall>,
    }
}

record! {
    /// Host wall-clock of one experiment.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExperimentWall {
        /// Experiment name (e.g. `"table3 Zen 2"`).
        pub experiment: String,
        /// Wall-clock seconds.
        pub seconds: f64,
    }
}

record! {
    schema = SCHEMA;
    /// The complete machine-readable result of a `repro bench` run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchSnapshot {
        /// Canonical run metadata.
        pub meta: RunMeta,
        /// Table 1 cells.
        pub table1: Vec<Table1Record>,
        /// Figure 6 sweeps.
        pub figure6: Vec<Figure6Record>,
        /// Figure 7 recovery.
        pub figure7: Figure7Record,
        /// Table 2 covert-channel rows.
        pub table2: Vec<CovertRecord>,
        /// Table 3 (kernel image KASLR), one record per uarch.
        pub table3: Vec<SlotTableRecord>,
        /// Table 4 (physmap KASLR), one record per uarch.
        pub table4: Vec<SlotTableRecord>,
        /// Table 5 (physical address), one record per (uarch, memory).
        pub table5: Vec<PhysAddrTableRecord>,
        /// §7.4 MDS leak, one record per uarch.
        pub mds: Vec<MdsTableRecord>,
        /// O4 outcomes.
        pub o4: Vec<O4Record>,
        /// O5 outcome.
        pub o5: O5Record,
        /// §8.2 software mitigation checks.
        pub software: Vec<SoftwareRecord>,
        /// §6.3 overhead suite.
        pub overhead: OverheadRecord,
        /// §9.1 gadget census.
        pub gadgets: GadgetRecord,
        /// Deterministic hot-path counters.
        pub perf: PerfRecord,
        /// Noise sweep of the adaptive fetch channel. Optional so
        /// baselines recorded before the sweep existed keep loading.
        pub noise_sweep: Option<Vec<NoiseSweepRecord>> [optional],
        /// PHT-channel (BranchSpectre-style) rows. Optional so baselines
        /// recorded before the channel existed keep loading.
        pub pht_channel: Option<Vec<PhtChannelRecord>> [optional],
        /// Host-volatile metadata (ignored by [`diff`]).
        pub host: Option<HostMeta> [optional],
    }
}

impl BenchSnapshot {
    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parse a snapshot from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on malformed JSON, an unknown schema or
    /// a shape mismatch.
    pub fn from_json_str(text: &str) -> Result<BenchSnapshot, SchemaError> {
        BenchSnapshot::from_json(&parse(text)?)
    }
}

/// One detected regression, human-readable.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Which metric regressed (e.g. `"table3[Zen 3].accuracy"`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {} -> current {}",
            self.metric, self.baseline, self.current
        )
    }
}

/// Tolerances for [`diff`]. `accuracy_pp` is percentage *points* a
/// fraction-correct metric may drop; `cycles_pct` is the percent
/// simulated cycles may grow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Allowed accuracy drop, percentage points (e.g. `1.0` = one
    /// point, so 0.99 → 0.98 passes and 0.99 → 0.97 fails).
    pub accuracy_pp: f64,
    /// Allowed simulated-cycle growth, percent.
    pub cycles_pct: f64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance {
            accuracy_pp: 1.0,
            cycles_pct: 5.0,
        }
    }
}

impl Tolerance {
    /// A uniform tolerance: `pct` percentage points for accuracies and
    /// `pct` percent for cycles.
    pub fn uniform(pct: f64) -> Tolerance {
        Tolerance {
            accuracy_pp: pct,
            cycles_pct: pct,
        }
    }

    fn accuracy_regressed(&self, base: f64, cur: f64) -> bool {
        (base - cur) * 100.0 > self.accuracy_pp
    }

    fn cycles_regressed(&self, base: u64, cur: u64) -> bool {
        cur as f64 > base as f64 * (1.0 + self.cycles_pct / 100.0)
    }
}

fn check_accuracy(out: &mut Vec<Regression>, tol: &Tolerance, metric: String, base: f64, cur: f64) {
    if tol.accuracy_regressed(base, cur) {
        out.push(Regression {
            metric,
            baseline: base,
            current: cur,
        });
    }
}

fn check_cycles(out: &mut Vec<Regression>, tol: &Tolerance, metric: String, base: u64, cur: u64) {
    if tol.cycles_regressed(base, cur) {
        out.push(Regression {
            metric,
            baseline: base as f64,
            current: cur as f64,
        });
    }
}

/// For each `baseline` row, find the `current` row that is `same` and
/// run `check` on the pair with the row's metric prefix `at` (e.g.
/// `table5[Zen | 1 GiB]`); a baseline row with no counterpart flags as
/// the coverage regression `"{at} missing"`.
fn gate_rows<'a, T: 'a>(
    out: &mut Vec<Regression>,
    baseline: impl IntoIterator<Item = &'a T>,
    current: &[T],
    same: impl Fn(&T, &T) -> bool,
    at: impl Fn(&T) -> String,
    mut check: impl FnMut(&mut Vec<Regression>, &str, &T, &T),
) {
    for base in baseline {
        match current.iter().find(|cur| same(base, cur)) {
            Some(cur) => check(out, &at(base), base, cur),
            None => out.push(Regression {
                metric: format!("{} missing", at(base)),
                baseline: 1.0,
                current: 0.0,
            }),
        }
    }
}

/// Compare `current` against `baseline` and return every regression
/// beyond `tol`.
///
/// Checked: Table 2 per-row accuracy, Table 3/4/5 per-uarch accuracy
/// and total simulated cycles, MDS per-uarch mean accuracy and cycles,
/// the decode-cache hit rate, and the quiet-end (knob = 0) noise-sweep
/// points' accuracy — the noisy points degrade by design, so only the
/// quiet baseline is gated. Improvements never flag; the `host`
/// section is ignored entirely. A baseline record with no counterpart
/// in `current` (missing uarch, fewer experiments) flags as a
/// coverage regression.
pub fn diff(baseline: &BenchSnapshot, current: &BenchSnapshot, tol: &Tolerance) -> Vec<Regression> {
    let mut out = Vec::new();
    let accuracy = |out: &mut Vec<Regression>, at: &str, base: f64, cur: f64| {
        check_accuracy(out, tol, format!("{at}.accuracy"), base, cur);
    };
    let cycles = |out: &mut Vec<Regression>, at: &str, base: u64, cur: u64| {
        check_cycles(out, tol, format!("{at}.cycles"), base, cur);
    };

    gate_rows(
        &mut out,
        &baseline.table2,
        &current.table2,
        |a, b| (&a.uarch, &a.kind) == (&b.uarch, &b.kind),
        |r| format!("table2[{} | {}]", r.uarch, r.kind),
        |out, at, b, c| accuracy(out, at, b.accuracy, c.accuracy),
    );

    for (name, base_tables, cur_tables) in [
        ("table3", &baseline.table3, &current.table3),
        ("table4", &baseline.table4, &current.table4),
    ] {
        gate_rows(
            &mut out,
            base_tables,
            cur_tables,
            |a, b| a.uarch == b.uarch,
            |t| format!("{name}[{}]", t.uarch),
            |out, at, b, c| {
                accuracy(out, at, b.accuracy(), c.accuracy());
                cycles(out, at, b.total_cycles(), c.total_cycles());
            },
        );
    }

    gate_rows(
        &mut out,
        &baseline.table5,
        &current.table5,
        |a, b| a.uarch == b.uarch && a.memory_gib == b.memory_gib,
        |t| format!("table5[{} | {} GiB]", t.uarch, t.memory_gib),
        |out, at, b, c| {
            accuracy(out, at, b.accuracy(), c.accuracy());
            cycles(out, at, b.total_cycles(), c.total_cycles());
        },
    );

    gate_rows(
        &mut out,
        &baseline.mds,
        &current.mds,
        |a, b| a.uarch == b.uarch,
        |t| format!("mds[{}]", t.uarch),
        |out, at, b, c| {
            accuracy(out, at, b.mean_accuracy(), c.mean_accuracy());
            cycles(out, at, b.total_cycles(), c.total_cycles());
        },
    );

    check_accuracy(
        &mut out,
        tol,
        "perf.decode_cache.hit_rate".to_string(),
        baseline.perf.hit_rate(),
        current.perf.hit_rate(),
    );

    // Only gate the TLB hit rate when the baseline has one — older
    // baselines predate the counter and parse it as 0/0.
    if baseline.perf.tlb_hits + baseline.perf.tlb_misses > 0 {
        check_accuracy(
            &mut out,
            tol,
            "perf.tlb.hit_rate".to_string(),
            baseline.perf.tlb_hit_rate(),
            current.perf.tlb_hit_rate(),
        );
    }

    // Gate the noise sweep's quiet-end points when the baseline has the
    // section. The noisy points degrade by design; the quiet baseline
    // of each axis must not.
    if let Some(base_sweep) = &baseline.noise_sweep {
        gate_rows(
            &mut out,
            base_sweep.iter().filter(|p| p.is_quiet()),
            current.noise_sweep.as_deref().unwrap_or(&[]),
            |a, b| a.axis == b.axis && a.value == b.value,
            |p| format!("noise_sweep[{} = 0]", p.axis),
            |out, at, b, c| accuracy(out, at, b.accuracy, c.accuracy),
        );
    }

    // Gate PHT-channel rows the same way as Table 2, but only when the
    // baseline already has the section (older baselines predate it).
    if let Some(base_rows) = &baseline.pht_channel {
        gate_rows(
            &mut out,
            base_rows,
            current.pht_channel.as_deref().unwrap_or(&[]),
            |a, b| a.uarch == b.uarch,
            |r| format!("pht_channel[{}]", r.uarch),
            |out, at, b, c| accuracy(out, at, b.accuracy, c.accuracy),
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> BenchSnapshot {
        BenchSnapshot {
            meta: RunMeta {
                profile: "quick".into(),
                seed: 0,
            },
            table1: vec![Table1Record {
                train: "jmp*".into(),
                victim: "non branch".into(),
                stages: vec![
                    Table1Stage {
                        uarch: "Zen".into(),
                        stage: "EX".into(),
                    },
                    Table1Stage {
                        uarch: "Zen 4".into(),
                        stage: "ID".into(),
                    },
                ],
            }],
            figure6: vec![Figure6Record {
                uarch: "Zen 2".into(),
                step: 0x100,
                points: vec![Figure6Point {
                    offset: 0xac0,
                    hits: 0,
                    misses: 8,
                }],
            }],
            figure7: Figure7Record {
                samples_per_address: 24,
                masks: vec![(1 << 47) | (1 << 35), 1 << 23],
                paper_patterns_hold: true,
            },
            table2: vec![CovertRecord {
                uarch: "Zen 2".into(),
                model: "R5 3600".into(),
                kind: "fetch (P1)".into(),
                bits: 256,
                accuracy: 0.9921875,
                probes: 520,
                abstentions: 1,
                mean_confidence: 0.91,
                seconds: 0.0125,
                bits_per_sec: 20480.0,
            }],
            table3: vec![SlotTableRecord {
                uarch: "Zen 3".into(),
                runs: vec![SlotRunRecord {
                    guessed_slot: 5,
                    actual_slot: 5,
                    correct: true,
                    best_score: -3,
                    confidence: 0.4,
                    cycles: 123_456,
                    seconds: 0.5,
                }],
            }],
            table4: vec![SlotTableRecord {
                uarch: "Zen".into(),
                runs: vec![],
            }],
            table5: vec![PhysAddrTableRecord {
                uarch: "Zen".into(),
                memory_gib: 1,
                runs: vec![PhysAddrRunRecord {
                    guessed_pa: None,
                    actual_pa: 0x4000_0000,
                    correct: false,
                    guesses_tested: 512,
                    confidence: 0.0,
                    cycles: 999,
                    seconds: 0.001,
                }],
            }],
            mds: vec![MdsTableRecord {
                uarch: "Zen 2".into(),
                runs: vec![MdsRunRecord {
                    leaked_hex: hex_encode(b"secret"),
                    accuracy: 1.0,
                    signal: true,
                    mean_confidence: 0.85,
                    cycles: 777,
                    seconds: 0.0003,
                    bytes_per_sec: 20000.0,
                }],
            }],
            o4: vec![O4Record {
                uarch: "Zen 2".into(),
                baseline: StageFlags {
                    fetched: true,
                    decoded: true,
                    executed: true,
                },
                suppressed: StageFlags {
                    fetched: true,
                    decoded: true,
                    executed: false,
                },
            }],
            o5: O5Record {
                transient_fetch_observed: true,
            },
            software: vec![SoftwareRecord {
                name: "lfence".into(),
                uarch: "Zen 2".into(),
                unprotected: true,
                protected: false,
            }],
            overhead: OverheadRecord {
                per_workload: vec![OverheadWorkload {
                    workload: "arith".into(),
                    baseline_cycles: 1000,
                    suppressed_cycles: 1010,
                }],
                geomean_overhead_pct: 0.69,
            },
            gadgets: GadgetRecord {
                spectre_gadgets: 183,
                mds_gadgets: 539,
                total_with_phantom: 722,
            },
            perf: PerfRecord {
                decode_cache_hits: 997,
                decode_cache_misses: 3,
                decodes_avoided: 997,
                tlb_hits: 4000,
                tlb_misses: 12,
                cow_faults: 9,
                cow_frames_shared: 700,
                restore_frames_copied: 27,
                trial_retries: 0,
                boot_cache_hits: 2,
                rewind_journal_frames: 32,
                frame_pool_reuses: 24,
                probe_arena_rearms: 6,
            },
            noise_sweep: Some(vec![
                NoiseSweepRecord {
                    axis: "spurious_evict".into(),
                    value: 0.0,
                    accuracy: 1.0,
                    probes: 128,
                    abstentions: 0,
                    mean_confidence: 0.97,
                },
                NoiseSweepRecord {
                    axis: "spurious_evict".into(),
                    value: 0.05,
                    accuracy: 0.9,
                    probes: 210,
                    abstentions: 2,
                    mean_confidence: 0.6,
                },
            ]),
            pht_channel: Some(vec![PhtChannelRecord {
                uarch: "Zen 2".into(),
                model: "EPYC 7252".into(),
                flip_mask: 1 << 13,
                bits: 128,
                accuracy: 0.984375,
                probes: 260,
                abstentions: 0,
                mean_confidence: 0.93,
                seconds: 0.004,
                bits_per_sec: 32000.0,
            }]),
            host: None,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let text = snap.to_json_string();
        let back = BenchSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back, snap);
        // Serialization is a pure function of the value.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn every_record_type_round_trips() {
        let snap = sample_snapshot();
        macro_rules! rt {
            ($rec:expr, $ty:ident) => {{
                let v = $rec.to_json();
                assert_eq!($ty::from_json(&v).expect("round trip"), $rec);
            }};
        }
        rt!(snap.meta.clone(), RunMeta);
        rt!(snap.table1[0].clone(), Table1Record);
        rt!(snap.figure6[0].clone(), Figure6Record);
        rt!(snap.figure7.clone(), Figure7Record);
        rt!(snap.table2[0].clone(), CovertRecord);
        rt!(snap.table3[0].clone(), SlotTableRecord);
        rt!(snap.table3[0].runs[0].clone(), SlotRunRecord);
        rt!(snap.table5[0].clone(), PhysAddrTableRecord);
        rt!(snap.table5[0].runs[0].clone(), PhysAddrRunRecord);
        rt!(snap.mds[0].clone(), MdsTableRecord);
        rt!(snap.mds[0].runs[0].clone(), MdsRunRecord);
        rt!(snap.o4[0].clone(), O4Record);
        rt!(snap.o5.clone(), O5Record);
        rt!(snap.software[0].clone(), SoftwareRecord);
        rt!(snap.overhead.clone(), OverheadRecord);
        rt!(snap.gadgets.clone(), GadgetRecord);
        rt!(snap.perf.clone(), PerfRecord);
        rt!(
            snap.noise_sweep.as_ref().expect("sample has sweep")[0].clone(),
            NoiseSweepRecord
        );
        rt!(
            snap.pht_channel.as_ref().expect("sample has pht rows")[0].clone(),
            PhtChannelRecord
        );
    }

    #[test]
    fn host_section_round_trips_when_present() {
        let mut snap = sample_snapshot();
        snap.host = Some(HostMeta {
            threads: 8,
            wall_seconds: vec![ExperimentWall {
                experiment: "table1".into(),
                seconds: 1.25,
            }],
        });
        let back = BenchSnapshot::from_json_str(&snap.to_json_string()).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn hex_round_trips() {
        assert_eq!(hex_encode(b""), "");
        assert_eq!(hex_encode(b"\x00\xff\x10"), "00ff10");
        assert_eq!(hex_encode(b"secret"), "736563726574");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = sample_snapshot()
            .to_json_string()
            .replace("phantom-bench/v1", "phantom-bench/v9");
        assert!(BenchSnapshot::from_json_str(&text).is_err());
    }

    #[test]
    fn identical_snapshots_show_no_regressions() {
        let snap = sample_snapshot();
        assert!(diff(&snap, &snap, &Tolerance::default()).is_empty());
    }

    #[test]
    fn accuracy_drop_beyond_tolerance_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.table2[0].accuracy = base.table2[0].accuracy - 0.05; // 5 pp
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("table2"), "{}", regs[0]);
        // Within tolerance: no flag.
        cur.table2[0].accuracy = base.table2[0].accuracy - 0.005; // 0.5 pp
        assert!(diff(&base, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn cycle_growth_beyond_tolerance_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.table3[0].runs[0].cycles = base.table3[0].runs[0].cycles * 2;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("table3"));
        assert!(regs[0].metric.contains("cycles"));
    }

    #[test]
    fn improvements_do_not_flag() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.table3[0].runs[0].cycles /= 2;
        cur.table2[0].accuracy = 1.0;
        assert!(diff(&base, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn missing_experiment_flags_as_coverage_regression() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.mds.clear();
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(
            regs.iter()
                .any(|r| r.metric.contains("mds") && r.metric.contains("missing")),
            "{regs:?}"
        );
    }

    #[test]
    fn decode_cache_hit_rate_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.perf.decode_cache_hits = 500;
        cur.perf.decode_cache_misses = 500;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(
            regs.iter().any(|r| r.metric.contains("decode_cache")),
            "{regs:?}"
        );
    }

    #[test]
    fn tlb_hit_rate_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.perf.tlb_hits = 2000;
        cur.perf.tlb_misses = 2012;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(regs.iter().any(|r| r.metric.contains("tlb")), "{regs:?}");
    }

    #[test]
    fn quiet_end_noise_sweep_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        // The quiet (value == 0.0) point is the determinism anchor: an
        // accuracy drop there means the measurement layer broke, not
        // that the noise got worse.
        cur.noise_sweep.as_mut().unwrap()[0].accuracy = 0.9;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("noise_sweep"), "{}", regs[0]);
        assert!(regs[0].metric.contains("= 0"), "{}", regs[0]);
    }

    #[test]
    fn noisy_sweep_points_are_not_gated() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        // Nonzero-noise points may drift with decoder tuning; only the
        // quiet end is load-bearing.
        cur.noise_sweep.as_mut().unwrap()[1].accuracy = 0.5;
        assert!(diff(&base, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn missing_quiet_sweep_point_flags_as_coverage_regression() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.noise_sweep = None;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "only the quiet point is gated: {regs:?}");
        assert!(regs[0].metric.contains("missing"), "{}", regs[0]);
    }

    #[test]
    fn baseline_without_noise_sweep_does_not_gate_it() {
        let mut base = sample_snapshot();
        base.noise_sweep = None;
        let text = base.to_json_string();
        assert!(!text.contains("noise_sweep"), "section omitted when None");
        let back = BenchSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back.noise_sweep, None);
        let cur = sample_snapshot();
        assert!(diff(&back, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn pht_channel_accuracy_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.pht_channel.as_mut().unwrap()[0].accuracy -= 0.05; // 5 pp
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("pht_channel"), "{}", regs[0]);
        // A current run that dropped the section is a coverage loss.
        cur.pht_channel = None;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(
            regs.iter()
                .any(|r| r.metric.contains("pht_channel") && r.metric.contains("missing")),
            "{regs:?}"
        );
    }

    #[test]
    fn baseline_without_pht_channel_does_not_gate_it() {
        let mut base = sample_snapshot();
        base.pht_channel = None;
        let text = base.to_json_string();
        assert!(!text.contains("pht_channel"), "section omitted when None");
        let back = BenchSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back.pht_channel, None);
        let cur = sample_snapshot();
        assert!(diff(&back, &cur, &Tolerance::default()).is_empty());
    }

    /// Drop keys from an object, emulating a record written before
    /// those fields existed.
    fn without(mut v: JsonValue, keys: &[&str]) -> JsonValue {
        if let JsonValue::Object(members) = &mut v {
            members.retain(|(k, _)| !keys.contains(&k.as_str()));
        }
        v
    }

    #[test]
    fn confidence_fields_added_after_a_baseline_parse_as_zero() {
        // Covert/slot/mds records written before the confidence-scored
        // decoder exist without the new keys; they must load with
        // zeroed metrics rather than fail.
        let snap = sample_snapshot();
        let old = without(
            snap.table2[0].to_json(),
            &["probes", "abstentions", "mean_confidence"],
        );
        let covert = CovertRecord::from_json(&old).expect("old-shape covert parses");
        assert_eq!(covert.probes, 0);
        assert_eq!(covert.abstentions, 0);
        assert_eq!(covert.mean_confidence, 0.0);

        let old = without(snap.table3[0].runs[0].to_json(), &["confidence"]);
        let slot = SlotRunRecord::from_json(&old).expect("old-shape slot parses");
        assert_eq!(slot.confidence, 0.0);

        let old = without(snap.mds[0].runs[0].to_json(), &["mean_confidence"]);
        let mds = MdsRunRecord::from_json(&old).expect("old-shape mds parses");
        assert_eq!(mds.mean_confidence, 0.0);
    }

    #[test]
    fn perf_counters_added_after_a_baseline_parse_as_zero() {
        // A baseline recorded before the TLB/CoW counters existed must
        // still load, with the absent counters defaulting to zero…
        let mut old = JsonValue::object();
        old.set("decode_cache_hits", JsonValue::Uint(997))
            .set("decode_cache_misses", JsonValue::Uint(3))
            .set("decodes_avoided", JsonValue::Uint(997));
        let perf = PerfRecord::from_json(&old).expect("old-shape perf parses");
        assert_eq!(perf.tlb_hits, 0);
        assert_eq!(perf.tlb_misses, 0);
        assert_eq!(perf.restore_frames_copied, 0);
        assert_eq!(perf.trial_retries, 0);
        assert_eq!(perf.boot_cache_hits, 0);
        assert_eq!(perf.rewind_journal_frames, 0);
        assert_eq!(perf.frame_pool_reuses, 0);
        assert_eq!(perf.probe_arena_rearms, 0);
        // …and such a baseline must not gate the TLB hit rate at all.
        let mut base = sample_snapshot();
        base.perf = perf;
        let mut cur = sample_snapshot();
        cur.perf.tlb_hits = 0;
        cur.perf.tlb_misses = 4012;
        assert!(
            diff(&base, &cur, &Tolerance::default())
                .iter()
                .all(|r| !r.metric.contains("tlb")),
            "old baseline must not flag tlb"
        );
    }

    #[test]
    fn retired_trace_counters_in_a_baseline_parse_and_diff_clean() {
        // Baselines written while the machine had a trace engine carry
        // three `trace_*` perf counters, and host sections written
        // before the built-in wall-clock A/Bs were retired carry
        // `decode_cache_wall` / `snapshot_wall`. They must still load,
        // with those keys ignored, and gate nothing against a snapshot
        // that no longer has them.
        let mut current = sample_snapshot();
        current.host = Some(HostMeta {
            threads: 2,
            wall_seconds: vec![ExperimentWall {
                experiment: "table1".into(),
                seconds: 0.5,
            }],
        });
        let mut doc = current.to_json();
        if let JsonValue::Object(members) = &mut doc {
            for (key, section) in members.iter_mut() {
                if key == "perf" {
                    section
                        .set("trace_hits", JsonValue::Uint(4990))
                        .set("trace_bailouts", JsonValue::Uint(2))
                        .set("trace_invalidations", JsonValue::Uint(1));
                } else if key == "host" {
                    let mut decode = JsonValue::object();
                    decode
                        .set("enabled_seconds", JsonValue::Float(0.8))
                        .set("disabled_seconds", JsonValue::Float(1.3));
                    let mut snapshot = JsonValue::object();
                    snapshot
                        .set("cow_seconds", JsonValue::Float(0.02))
                        .set("deep_seconds", JsonValue::Float(0.41));
                    section
                        .set("decode_cache_wall", decode)
                        .set("snapshot_wall", snapshot);
                }
            }
        }
        let text = doc.to_pretty_string();
        assert!(text.contains("\"trace_invalidations\""));
        assert!(text.contains("\"snapshot_wall\""));
        let old = BenchSnapshot::from_json_str(&text).expect("old-shape snapshot parses");
        assert_eq!(old, current);
        assert!(diff(&old, &current, &Tolerance::default()).is_empty());
    }

    /// The committed canonical snapshot.
    const COMMITTED: &str = include_str!("../../../../BENCH_phantom.json");

    #[test]
    fn committed_snapshot_re_encodes_byte_identically() {
        // Pins member order and formatting of every record type against
        // real data, not only against the sample above.
        let snap = BenchSnapshot::from_json_str(COMMITTED).expect("committed snapshot parses");
        assert!(snap.host.is_none(), "the committed snapshot is canonical");
        assert_eq!(snap.to_json_string(), COMMITTED);
    }

    /// Replace the member `key` of object `v` with `value`.
    fn with(mut v: JsonValue, key: &str, value: JsonValue) -> JsonValue {
        if let JsonValue::Object(members) = &mut v {
            for (k, slot) in members.iter_mut() {
                if k == key {
                    *slot = value.clone();
                }
            }
        }
        v
    }

    #[test]
    fn lenient_fields_of_the_wrong_type_are_errors() {
        // Lenient means "absent ⇒ default", not "unreadable ⇒ default":
        // a baseline with `"probes": "x"` must not silently read as 0.
        let snap = sample_snapshot();
        let bad = JsonValue::Str("x".into());
        let cases = [
            (
                CovertRecord::from_json(&with(snap.table2[0].to_json(), "probes", bad.clone()))
                    .err(),
                "probes",
            ),
            (
                CovertRecord::from_json(&with(
                    snap.table2[0].to_json(),
                    "mean_confidence",
                    JsonValue::Bool(true),
                ))
                .err(),
                "mean_confidence",
            ),
            (
                SlotRunRecord::from_json(&with(
                    snap.table3[0].runs[0].to_json(),
                    "confidence",
                    bad.clone(),
                ))
                .err(),
                "confidence",
            ),
            (
                PhysAddrRunRecord::from_json(&with(
                    snap.table5[0].runs[0].to_json(),
                    "confidence",
                    JsonValue::Null,
                ))
                .err(),
                "confidence",
            ),
            (
                MdsRunRecord::from_json(&with(
                    snap.mds[0].runs[0].to_json(),
                    "mean_confidence",
                    bad.clone(),
                ))
                .err(),
                "mean_confidence",
            ),
            (
                PerfRecord::from_json(&with(snap.perf.to_json(), "tlb_hits", JsonValue::Int(-1)))
                    .err(),
                "tlb_hits",
            ),
        ];
        for (err, key) in cases {
            let err = err.unwrap_or_else(|| panic!("wrong-typed {key:?} must not parse"));
            assert!(err.0.contains(key), "error names the field: {err}");
        }
    }

    /// The number of values in `v`, itself included.
    fn values(v: &JsonValue) -> usize {
        1 + match v {
            JsonValue::Array(items) => items.iter().map(values).sum(),
            JsonValue::Object(members) => members.iter().map(|(_, m)| values(m)).sum(),
            _ => 0,
        }
    }

    /// Apply `f` to the `n`-th value of `v` in depth-first order (`v`
    /// itself is value 0). Returns whether the walk reached it.
    fn at_nth(v: &mut JsonValue, n: &mut usize, f: &mut dyn FnMut(&mut JsonValue)) -> bool {
        if *n == 0 {
            f(v);
            return true;
        }
        *n -= 1;
        match v {
            JsonValue::Array(items) => items.iter_mut().any(|item| at_nth(item, n, f)),
            JsonValue::Object(members) => members.iter_mut().any(|(_, m)| at_nth(m, n, f)),
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Baselines are user input: a mutated `BENCH_phantom.json`
        /// (truncated, byte-flipped, with keys deleted or values swapped
        /// for another JSON type) decodes to `Ok` or `Err`, never a
        /// panic.
        #[test]
        fn mutated_baselines_never_panic(
            ops in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                1..4,
            ),
        ) {
            let mut text = COMMITTED.to_string();
            for (kind, a, b) in ops {
                match kind {
                    0 => {
                        let mut bytes = text.into_bytes();
                        bytes.truncate(a as usize % (bytes.len() + 1));
                        text = String::from_utf8_lossy(&bytes).into_owned();
                    }
                    1 => {
                        let mut bytes = text.into_bytes();
                        if !bytes.is_empty() {
                            let i = a as usize % bytes.len();
                            bytes[i] ^= (b as u8).max(1);
                        }
                        text = String::from_utf8_lossy(&bytes).into_owned();
                    }
                    _ => {
                        let Ok(mut doc) = parse(&text) else { continue };
                        let mut n = a as usize % values(&doc);
                        at_nth(&mut doc, &mut n, &mut |v| {
                            if kind == 2 {
                                if let JsonValue::Object(members) = v {
                                    if !members.is_empty() {
                                        members.remove(b as usize % members.len());
                                    }
                                }
                            } else {
                                *v = match b % 7 {
                                    0 => JsonValue::Null,
                                    1 => JsonValue::Bool(true),
                                    2 => JsonValue::Int(-7),
                                    3 => JsonValue::Float(0.5),
                                    4 => JsonValue::Str("x".into()),
                                    5 => JsonValue::Array(vec![JsonValue::Uint(1)]),
                                    _ => JsonValue::object(),
                                };
                            }
                        });
                        text = doc.to_pretty_string();
                    }
                }
            }
            let _ = BenchSnapshot::from_json_str(&text);
        }
    }
}
