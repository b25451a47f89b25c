//! §6.2 — colliding with kernel addresses: brute force, collision
//! collection, and recovery of the cross-privilege BTB functions
//! (**Figure 7**).
//!
//! The paper's procedure: allocate a kernel address `K` (a kernel-module
//! function of nops + return), make it observable, then find user
//! addresses whose BTB entries serve predictions at `K`. Brute-forcing
//! bit-flip patterns fails on Zen 3 (every function folds `b47`, so a
//! collision needs 13+ coordinated flips); generating *random* colliding
//! addresses and solving for consistent XOR functions succeeds. We
//! replace the paper's Z3 with GF(2) elimination (`phantom-gf2`), which
//! is exact for XOR-linear functions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_bpu::BtbScheme;
use phantom_gf2::{recover_functions, RecoveredFunction, RecoveryConfig, Syndrome};
use phantom_mem::VirtAddr;

/// A behavioural collision oracle: "does training a branch at `user`
/// make the predictor serve it at `kernel`?" — what the paper measures
/// with performance counters and timing, per candidate.
pub trait CollisionOracle {
    /// Test one (user, kernel) address pair.
    fn collides(&mut self, user: VirtAddr, kernel: VirtAddr) -> bool;
}

/// The BTB's same-privilege alias test, answered in closed form.
///
/// `collides(u, k)` is what flushing a bare [`Btb`](phantom_bpu::Btb)
/// of this scheme, training a branch at `u` and looking up `k` reports:
/// the flushed BTB holds only the entry just trained, so the lookup hits
/// exactly when `u` and `k` share their page offset and fold signature.
/// Fold signatures are linear, so that is `(u ^ k) & 0xfff == 0` and a
/// zero fold syndrome of `u ^ k`, evaluated byte-sliced
/// ([`Syndrome`]). Random collisions occur at rate `2^-rank` (`2^-13`
/// for the Zen 3/4 family, `2^-12` for Zen 1/2), so collecting 32 of
/// them takes ~10⁵ candidates and the per-candidate cost is the whole
/// price.
///
/// Like [`Btb::lookup`](phantom_bpu::Btb::lookup), the test ignores the
/// scheme's privilege tagging and associativity: it answers whether the
/// two addresses alias, not whether a user-trained entry would be served
/// in kernel mode on a privilege-tagged (Intel) part.
#[derive(Debug)]
pub struct BtbOracle {
    syndrome: Syndrome,
}

impl BtbOracle {
    /// Oracle over the given BTB scheme's fold family.
    pub fn new(scheme: BtbScheme) -> BtbOracle {
        let masks: Vec<u64> = scheme.family.fns().iter().map(|f| f.mask).collect();
        BtbOracle {
            syndrome: Syndrome::new(&masks),
        }
    }
}

impl CollisionOracle for BtbOracle {
    fn collides(&mut self, user: VirtAddr, kernel: VirtAddr) -> bool {
        let d = user.raw() ^ kernel.raw();
        d & 0xfff == 0 && self.syndrome.eval(d) == 0
    }
}

/// Outcome of the brute-force search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BruteForceOutcome {
    /// Patterns (XOR masks over bits 12–47 plus the canonical high bits)
    /// that produced collisions.
    pub patterns: Vec<u64>,
    /// How many candidate patterns were tested.
    pub tested: u64,
}

/// Brute force §6.2-style: flip up to `max_flips` bits of `K` (among
/// bits 12–46, always flipping `b47` and the sign-extension bits to land
/// in user space) and test each pattern. On Zen 3/4 this fails for small
/// `max_flips` — every fold function involves `b47`, so clearing it
/// disturbs all twelve functions at once.
pub fn brute_force(
    oracle: &mut dyn CollisionOracle,
    kernel: VirtAddr,
    max_flips: u32,
) -> BruteForceOutcome {
    // Flipping into user space: clear bits 63..47.
    let to_user = 0xffff_8000_0000_0000u64 & kernel.raw();
    let mut patterns = Vec::new();
    let mut tested = 0;

    // Enumerate subsets of bits 12..=46 with |S| <= max_flips.
    let bits: Vec<u32> = (12..47).collect();
    let mut stack: Vec<(usize, u64, u32)> = vec![(0, 0, 0)];
    while let Some((idx, mask, used)) = stack.pop() {
        let pattern = to_user | mask;
        tested += 1;
        if oracle.collides(VirtAddr::new(kernel.raw() ^ pattern), kernel) {
            patterns.push(pattern);
        }
        if used < max_flips {
            for (i, &b) in bits.iter().enumerate().skip(idx) {
                stack.push((i + 1, mask | (1 << b), used + 1));
            }
        }
    }
    BruteForceOutcome { patterns, tested }
}

/// Collect `count` random user-space addresses that collide with `K`,
/// keeping the low 12 bits equal to `K`'s (the paper shrinks the search
/// space the same way). Randomizes bits 12–46.
pub fn collect_collisions(
    oracle: &mut dyn CollisionOracle,
    kernel: VirtAddr,
    count: usize,
    seed: u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let low12 = kernel.raw() & 0xfff;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let random_mid: u64 = rng.gen::<u64>() & 0x0000_7fff_ffff_f000;
        let candidate = VirtAddr::new(random_mid | low12);
        if oracle.collides(candidate, kernel) {
            out.push(candidate.raw());
        }
    }
    out
}

/// The full Figure 7 reproduction: collisions against several kernel
/// addresses, solved into a bounded-weight basis of XOR functions.
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// The recovered functions (weight ≤ 4, like the paper's `n = 4`).
    pub functions: Vec<RecoveredFunction>,
    /// Collision samples used per kernel address.
    pub samples_per_address: usize,
    /// The two XOR collision patterns the paper publishes
    /// (`0xffffbff800000000` and `0xffff8003ff800000`), re-validated
    /// against the recovered functions.
    pub paper_patterns_hold: bool,
}

/// Recover the Zen 3/4 cross-privilege BTB functions from behavioural
/// collisions only.
pub fn recover_figure7(
    oracle: &mut dyn CollisionOracle,
    kernel_addresses: &[VirtAddr],
    samples_per_address: usize,
    seed: u64,
) -> Figure7 {
    let collisions: Vec<(u64, Vec<u64>)> = kernel_addresses
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            (
                k.raw(),
                collect_collisions(oracle, k, samples_per_address, seed ^ i as u64),
            )
        })
        .collect();
    let functions = recover_functions(&collisions, RecoveryConfig::default());

    // §6.2's sanity check: the two published patterns must preserve every
    // recovered function.
    let paper_patterns_hold = [0xffff_bff8_0000_0000u64, 0xffff_8003_ff80_0000]
        .iter()
        .all(|&p| functions.iter().all(|f| f.eval(p) == 0));

    Figure7 {
        functions,
        samples_per_address,
        paper_patterns_hold,
    }
}

/// Derive a usable user⇄kernel XOR pattern from recovered functions: a
/// pattern that flips `b47` (and the canonical upper bits) while keeping
/// every function's parity — what the exploits use to choose training
/// addresses ("to create collisions, we use the higher bits").
pub fn collision_pattern(functions: &[RecoveredFunction]) -> Option<u64> {
    let mut pattern: u64 = 0xffff_8000_0000_0000;
    for _ in 0..64 {
        let violated: Vec<&RecoveredFunction> =
            functions.iter().filter(|f| f.eval(pattern) == 1).collect();
        if violated.is_empty() {
            return Some(pattern);
        }
        let f = violated[0];
        let bit = f
            .bits()
            .into_iter()
            .find(|&b| b < 47 && pattern >> b & 1 == 0)?;
        pattern |= 1 << bit;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_bpu::Btb;
    use phantom_gf2::BitMatrix;
    use phantom_isa::BranchKind;
    use phantom_mem::PrivilegeLevel;
    use phantom_pipeline::spec::mutate::mutate_spec;
    use phantom_pipeline::spec::UarchSpec;
    use proptest::prelude::*;

    const K: u64 = 0xffff_ffff_8124_6ac0;

    /// The reference [`BtbOracle`] must agree with: flush a bare BTB,
    /// train a branch at `user`, look `kernel` up.
    struct BareBtbOracle {
        btb: Btb,
    }

    impl BareBtbOracle {
        fn new(scheme: BtbScheme) -> BareBtbOracle {
            BareBtbOracle {
                btb: Btb::new(scheme),
            }
        }
    }

    impl CollisionOracle for BareBtbOracle {
        fn collides(&mut self, user: VirtAddr, kernel: VirtAddr) -> bool {
            self.btb.flush();
            self.btb.train(
                user,
                BranchKind::Indirect,
                VirtAddr::new(0x30_0000),
                PrivilegeLevel::User,
                0,
            );
            self.btb.lookup(kernel).is_some()
        }
    }

    /// The distinct BTB schemes of the builtin specs (Zen 1/2, Zen 3/4
    /// and the privilege-tagged Intel scheme), then mutants of the
    /// builtins whose BTB differs from their base's. The flag marks the
    /// builtins, whose folds are known to admit user addresses colliding
    /// with the kernel-half `K`.
    fn schemes() -> Vec<(BtbScheme, bool)> {
        let builtins = UarchSpec::builtins();
        let mut out: Vec<(BtbScheme, bool)> = Vec::new();
        for spec in &builtins {
            let scheme = spec.btb.scheme();
            if !out.iter().any(|(s, _)| *s == scheme) {
                out.push((scheme, true));
            }
        }
        assert_eq!(out.len(), 3, "zen12, zen34 and intel");
        assert!(out.iter().any(|(s, _)| s.privilege_tagged));
        let mutants = (0u64..).filter_map(|seed| {
            let base = &builtins[seed as usize % builtins.len()];
            mutate_spec(base, seed).filter(|m| m.btb != base.btb)
        });
        out.extend(mutants.take(6).map(|m| (m.btb.scheme(), false)));
        out
    }

    /// Vectors over bits 12–63 that every fold of `scheme` annihilates.
    fn alias_basis(scheme: &BtbScheme) -> Vec<u64> {
        let masks: Vec<u64> = scheme.family.fns().iter().map(|f| f.mask).collect();
        BitMatrix::from_rows(64, &masks)
            .orthogonal_basis()
            .into_iter()
            .filter(|v| v & 0xfff == 0)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The closed-form oracle answers exactly what the bare BTB
        /// does, on every scheme, for random pairs (which almost never
        /// collide) and for pairs built from the folds' alias basis
        /// (which collide unless the page offsets differ).
        #[test]
        fn btb_oracle_matches_the_bare_btb(
            kernel in any::<u64>(),
            random in any::<u64>(),
            picks in any::<u64>(),
            offset in 1u64..0x1000,
            mode in 0u8..4,
        ) {
            for (scheme, _) in schemes() {
                let alias = alias_basis(&scheme)
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| picks >> (i % 64) & 1 == 1)
                    .fold(0, |d, (_, v)| d ^ v);
                let user = match mode {
                    0 => random,
                    1 => random & !0xfff | kernel & 0xfff,
                    2 => kernel ^ alias,
                    _ => kernel ^ alias ^ offset,
                };
                let (u, k) = (VirtAddr::new(user), VirtAddr::new(kernel));
                let fast = BtbOracle::new(scheme.clone()).collides(u, k);
                prop_assert_eq!(fast, BareBtbOracle::new(scheme).collides(u, k));
                if mode == 2 {
                    prop_assert!(fast, "an alias-basis delta must collide");
                }
            }
        }
    }

    #[test]
    fn collected_collisions_match_the_bare_btb() {
        for (scheme, builtin) in schemes() {
            let mut victims = vec![0x40_0ac0];
            if builtin {
                victims.push(K);
            }
            for victim in victims {
                for seed in 0..8 {
                    let v = VirtAddr::new(victim);
                    let fast = collect_collisions(&mut BtbOracle::new(scheme.clone()), v, 4, seed);
                    let bare =
                        collect_collisions(&mut BareBtbOracle::new(scheme.clone()), v, 4, seed);
                    assert_eq!(
                        fast,
                        bare,
                        "{} victim {victim:#x} seed {seed}",
                        scheme.summary()
                    );
                }
            }
        }
    }

    #[test]
    fn brute_force_fails_on_zen34_small_budgets() {
        // The paper: "this approach does not yield any results … when
        // flipping up to 6 bits". Exhausting 6 flips over 35 bits is
        // ~2M oracle calls; 3 flips (~7k) already demonstrates the
        // structural point — every fold involves b47.
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let out = brute_force(&mut oracle, VirtAddr::new(K), 3);
        assert!(
            out.patterns.is_empty(),
            "no small collision pattern on Zen 3"
        );
        assert!(out.tested > 7000);
    }

    #[test]
    fn brute_force_succeeds_on_zen12() {
        // On Zen 1/2 nothing above bit 35 is folded: flipping only the
        // high bits (zero extra flips) already collides — why Retbleed
        // worked there.
        let mut oracle = BtbOracle::new(BtbScheme::zen12());
        let out = brute_force(&mut oracle, VirtAddr::new(K), 0);
        assert_eq!(out.patterns.len(), 1);
    }

    #[test]
    fn random_collisions_occur_and_verify() {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let got = collect_collisions(&mut oracle, VirtAddr::new(K), 4, 7);
        assert_eq!(got.len(), 4);
        for &u in &got {
            assert!(!VirtAddr::new(u).is_kernel_half());
            assert_eq!(u & 0xfff, K & 0xfff);
            assert!(oracle.collides(VirtAddr::new(u), VirtAddr::new(K)));
        }
    }

    #[test]
    fn figure7_recovery_matches_ground_truth() {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let ks = [VirtAddr::new(K), VirtAddr::new(0xffff_ffff_9230_0ac0)];
        let fig7 = recover_figure7(&mut oracle, &ks, 24, 11);
        assert_eq!(fig7.functions.len(), 12, "rank-12 family");
        assert!(fig7.paper_patterns_hold);
        // Every recovered function lies in the planted Figure 7 span.
        let truth = phantom_bpu::FoldFamily::zen34();
        let truth_matrix = phantom_gf2::BitMatrix::from_rows(
            48,
            &truth.fns().iter().map(|f| f.mask).collect::<Vec<_>>(),
        );
        for f in &fig7.functions {
            assert!(truth_matrix.in_row_space(f.mask), "{f}");
        }
    }

    #[test]
    fn derived_pattern_actually_collides() {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let fig7 = recover_figure7(&mut oracle, &[VirtAddr::new(K)], 30, 3);
        let pattern = collision_pattern(&fig7.functions).expect("pattern exists");
        let user = VirtAddr::new(K ^ pattern);
        assert!(!user.is_kernel_half());
        assert!(
            oracle.collides(user, VirtAddr::new(K)),
            "pattern {pattern:#x}"
        );
    }
}
