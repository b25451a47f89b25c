//! End-to-end checks for the discover fuzzer: the committed regression
//! corpus replays green, the JSONL report is byte-identical at any
//! worker count and to a committed golden file, and the minimizer's
//! invariants hold under proptest.

use std::path::PathBuf;

use phantom::runner::{trial_seed, TrialRunner};
use phantom_bench::discover::{
    beyond_table1, discover_jsonl, generate_case, minimize_case, parse_case, replay_case, run_case,
    run_discover_on, CaseOutcome, DiscoverConfig,
};
use proptest::prelude::*;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "committed corpus must not be empty");
    files
}

#[test]
fn committed_corpus_replays_green() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let entry =
            parse_case(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        replay_case(&entry).unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
    }
}

#[test]
fn corpus_includes_a_pair_beyond_the_table1_grid() {
    // The fuzzer's reason to exist: at least one committed leak is not
    // reachable from the hand-written Table 1 sweep — an out-of-place
    // (aliased) training site or a mutated spec.
    let mut beyond = 0;
    let mut aliased = 0;
    let mut mutated = 0;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let entry = parse_case(&text).expect("corpus parses");
        if beyond_table1(&entry.case) {
            beyond += 1;
        }
        if entry.case.delta != 0 {
            aliased += 1;
        }
        if entry.case.mutated {
            mutated += 1;
        }
    }
    assert!(beyond >= 1, "no corpus entry goes beyond the Table 1 grid");
    assert!(
        aliased >= 1,
        "no corpus entry uses an aliased training site"
    );
    assert!(mutated >= 1, "no corpus entry carries a mutated spec");
}

#[test]
fn corpus_entries_are_minimizer_fixpoints() {
    // Committed cases are already minimized; re-minimizing must be the
    // identity (the minimizer is deterministic and idempotent).
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let entry = parse_case(&text).expect("corpus parses");
        let again = minimize_case(&entry.case);
        assert_eq!(
            again,
            entry.case,
            "{}: minimizer moved an already-minimal case",
            path.display()
        );
    }
}

#[test]
fn discover_jsonl_identical_at_one_and_two_workers() {
    let cfg = DiscoverConfig { budget: 8, seed: 5 };
    let one = run_discover_on(&TrialRunner::with_threads(1), cfg).expect("runs");
    let two = run_discover_on(&TrialRunner::with_threads(2), cfg).expect("runs");
    let jsonl = discover_jsonl(&one);
    assert_eq!(jsonl, discover_jsonl(&two));
    // The report carries the full budget's disposition accounting.
    assert_eq!(
        one.findings.len() + one.quiet + one.rejected_total() + one.faulted,
        cfg.budget
    );
    assert!(jsonl
        .lines()
        .last()
        .expect("summary line")
        .contains("discover-summary"));
}

#[test]
fn discover_jsonl_matches_the_committed_golden_file() {
    // `repro discover 128 --seed 7 --workers 1` output, committed. It
    // carries aliased findings, so a flipped GF(2) oracle verdict (or
    // any other change to a finding) shows up as a byte difference even
    // when it flips the same way at every worker count.
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/discover-s7-b128.jsonl");
    let golden = std::fs::read_to_string(&path).expect("golden file reads");
    let cfg = DiscoverConfig {
        budget: 128,
        seed: 7,
    };
    let report = run_discover_on(&TrialRunner::with_threads(1), cfg).expect("runs");
    assert_eq!(
        discover_jsonl(&report),
        golden,
        "discover output drifted from {}",
        path.display()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Minimization is a pure function of the case and preserves the
    /// leak property: for any trial seed whose case leaks, the
    /// minimized case still leaks, two minimizations agree, and the
    /// minimizer is idempotent.
    #[test]
    fn minimizer_preserves_the_leak_and_is_deterministic(index in 0usize..4096) {
        let case = generate_case(trial_seed(9, index));
        if matches!(run_case(&case), CaseOutcome::Leak(_)) {
            let min = minimize_case(&case);
            prop_assert!(
                matches!(run_case(&min), CaseOutcome::Leak(_)),
                "minimized case stopped leaking: {min:?}"
            );
            prop_assert_eq!(&min, &minimize_case(&case));
            prop_assert_eq!(&min, &minimize_case(&min));
            prop_assert!(min.ops.len() <= case.ops.len());
        }
    }

    /// Case generation is a pure function of the seed.
    #[test]
    fn case_generation_is_pure(seed in any::<u64>()) {
        prop_assert_eq!(generate_case(seed), generate_case(seed));
    }
}
