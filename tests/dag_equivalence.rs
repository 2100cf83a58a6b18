//! The schedule must be invisible in the output bits and in the ledger.
//!
//! Every reduction stage — full→band (Algorithm IV.1 as one loop over
//! panels), band→band, CA-SBR, Lang (one walk over a chase plan) — is a
//! straight-line program on the driver's thread with live charges in
//! program order, rank bodies included; what reaches the pool is the
//! GEMM/QR/D&C pieces below them. For every problem shape — including
//! ragged ones where the halving target does not divide the band-width —
//! a run that may use the pool and a budget-1 run agree **bitwise** on
//!
//! * the reduced band (every stored word),
//! * the recorded Householder transforms (`row0`, `U`, `T`, in record
//!   order),
//! * the eigenvalues and eigenvectors of the full solver, and
//! * the metered ledger: `F`/`W`/`Q`/`S` totals *and* the per-processor
//!   flop/word/superstep breakdowns,
//!
//! and on every fixed case the ledger equals [`PINS`]. The rows are
//! ledgers of drivers that no longer exist, each recorded at the last
//! commit that had the driver and never re-pinned since, so they say
//! that three rewrites of the schedule changed no charge:
//!
//! * the `c = 1` full→band rows, the `p ≤ 4` band→band rows and the
//!   solver rows: the superstep-barrier drivers (one fence per panel /
//!   pipeline phase);
//! * the parallel-QR band→band row and the CA-SBR and Lang rows: the
//!   task-graph chase drivers;
//! * the two `c > 1` full→band rows: the task-graph full→band driver,
//!   whose charge replay in task-insertion order is the order the loop
//!   now charges in. With replication line 10 allocates per layer, so
//!   the peak-memory mark `M` is sensitive to that order.
//!
//! (The test names keep "dag" and "barrier" for continuity of the
//! test history; neither exists.)
//!
//! When an intentional accounting change lands, re-run with
//! `UPDATE_GOLDEN=1 cargo test --test dag_equivalence -- --nocapture`
//! to print the new pin lines, then update the table.

use ca_symm_eig::bsp::{Costs, Machine, MachineParams};
use ca_symm_eig::dla::bulge::BlockReflector;
use ca_symm_eig::dla::{gen, BandedSym};
use ca_symm_eig::eigen::band_to_band::try_band_to_band;
use ca_symm_eig::eigen::ca_sbr::ca_sbr;
use ca_symm_eig::eigen::full_to_band::try_full_to_band;
use ca_symm_eig::eigen::lang::lang_band_to_tridiagonal;
use ca_symm_eig::eigen::{try_symm_eigen_25d_vectors, EigenParams};
use ca_symm_eig::pla::exec::with_forced_serial;
use ca_symm_eig::pla::Grid;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(case label, [F, W, Q, S, M, total volume, total flops], FNV-1a of
/// the per-processor flop ++ word ++ superstep tallies)`.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 7], u64)] = &[
    ("full_to_band n=48 b=7", [79244, 14028, 13515, 250, 1217, 50840, 291188], 0x40e15cf150fc3946),
    ("full_to_band n=48 b=16", [79020, 10880, 8704, 74, 1600, 38912, 258732], 0x17e3785f7338ba20),
    ("full_to_band n=65 b=9", [196762, 25892, 25667, 290, 2181, 93816, 715101], 0x158abef13cf7b5f8),
    ("full_to_band n=65 b=12", [195169, 24367, 22170, 206, 2326, 88164, 688349], 0x1b9ddb2ee3d72e83),
    ("full_to_band n=48 b=8 p=8 c=2", [119714, 10586, 11008, 319, 2037, 66550, 402539], 0xb91ff15fd2d5254a),
    ("full_to_band n=64 b=10 p=64 c=4", [174882, 9284, 6534, 817, 649, 315408, 1091152], 0x2c1af74862d042cc),
    ("band_to_band n=48 b=9 h=4 p=1", [150472, 37199, 32032, 515, 0, 37199, 150472], 0xe319c654e5bd24a7),
    ("band_to_band n=48 b=9 h=4 p=4", [105507, 21993, 22294, 350, 0, 29347, 150472], 0x3c62316f0360015c),
    ("band_to_band n=48 b=7 h=3 p=1", [131360, 44778, 35174, 868, 0, 44778, 131360], 0xc6c53dd9bac4debd),
    ("band_to_band n=48 b=7 h=3 p=4", [86643, 27057, 23181, 583, 0, 36134, 131360], 0x709d06dfe0ae897e),
    ("band_to_band n=48 b=12 h=5 p=1", [166109, 31925, 28930, 330, 0, 31925, 166109], 0x51620f6a9c6a974e),
    ("band_to_band n=48 b=12 h=5 p=4", [135714, 20934, 23136, 240, 0, 26507, 166109], 0xfbac8e43ba2fe6d6),
    ("band_to_band n=65 b=9 h=4 p=1", [309111, 82793, 64556, 928, 0, 82793, 309111], 0xc73b5b0926aa1be7),
    ("band_to_band n=65 b=9 h=4 p=4", [202632, 49380, 42164, 598, 0, 67943, 309111], 0x41e915d2911f43ad),
    ("band_to_band n=65 b=7 h=3 p=1", [261756, 93712, 69133, 1569, 0, 93712, 261756], 0x8c2cbb7e1214ca9c),
    ("band_to_band n=65 b=7 h=3 p=4", [160197, 53946, 42172, 954, 0, 83934, 261756], 0x7fdd126acefdcc92),
    ("band_to_band n=65 b=12 h=5 p=1", [359334, 71658, 60619, 577, 0, 71658, 359334], 0x92ea766e64febaba),
    ("band_to_band n=65 b=12 h=5 p=4", [249693, 42237, 41839, 397, 0, 55850, 359334], 0x1cc036a17dd71eb7),
    ("band_to_band n=129 b=9 h=4 p=1", [1410710, 397361, 287948, 3570, 0, 397361, 1410710], 0xfa3330384783a83e),
    ("band_to_band n=129 b=9 h=4 p=4", [807380, 221391, 164636, 2040, 0, 382829, 1410710], 0xeab3f042936b4045),
    ("band_to_band n=129 b=7 h=3 p=1", [1149873, 422390, 298881, 6067, 0, 422390, 1149873], 0x3571aea329562a25),
    ("band_to_band n=129 b=7 h=3 p=4", [638814, 231507, 166050, 3412, 0, 413424, 1149873], 0xf29cb9ce33018611),
    ("band_to_band n=129 b=12 h=5 p=1", [1728330, 386332, 282460, 2193, 0, 386332, 1728330], 0xca1c57607a9f0bd3),
    ("band_to_band n=129 b=12 h=5 p=4", [1033184, 221622, 168726, 1323, 0, 359576, 1728330], 0x7b1bd2c0b57ef611),
    ("band_to_band n=257 b=9 h=4 p=1", [6002408, 1696659, 1213194, 13984, 0, 1696659, 6002408], 0xa50dd6f9b3bd4841),
    ("band_to_band n=257 b=9 h=4 p=4", [3217400, 901812, 649756, 7474, 0, 1682127, 6002408], 0x11ac268ba273f4e1),
    ("band_to_band n=257 b=7 h=3 p=1", [4809657, 1769123, 1241146, 23852, 0, 1769123, 4809657], 0x2904dcf314098138),
    ("band_to_band n=257 b=7 h=3 p=4", [2537764, 929636, 654737, 12647, 0, 1759585, 4809657], 0x17f8dab22cff9a93),
    ("band_to_band n=257 b=12 h=5 p=1", [7519052, 1702655, 1212245, 8484, 0, 1702655, 7519052], 0x927520382b2730d5),
    ("band_to_band n=257 b=12 h=5 p=4", [4115638, 922593, 663191, 4674, 0, 1676825, 7519052], 0xdf59e75094d66241),
    ("band_to_band n=400 b=200 h=100 p=16", [29053304, 388555, 334056, 354, 20051, 2363504, 137982446], 0xd3f1fc1c1bfa36d3),
    ("ca_sbr n=64 b=8 p=4", [116496, 2952, 10404, 6, 0, 8064, 295936], 0xf172990cf1e2a4a4),
    ("lang n=48 b=6 p=4", [64868, 2044, 13258, 87, 0, 5040, 111740], 0xcb4b4369abc76ced),
    ("symm_eigen_25d_vectors n=48", [808176, 21284, 33060, 287, 5472, 66500, 1478208], 0x7f7bcd7d083a5311),
    ("symm_eigen_25d_vectors n=65", [2008358, 39467, 70492, 406, 9728, 122964, 3603371], 0x50d19766d5dfa04b),
    ("symm_eigen_25d_vectors n=129", [14393061, 178083, 182044, 156, 17920, 556312, 29168185], 0xe6600de59db74346),
];

/// FNV-1a over a stream of 64-bit words (as little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the exact bit patterns of a stream of `f64`s.
fn bit_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv1a(values.into_iter().map(f64::to_bits))
}

/// Every stored word of the band plus every recorded transform, folded
/// into one hash. `row0` rides along as a float so a transform applied
/// at the wrong offset changes the fingerprint even if `U`/`T` agree.
fn band_fingerprint(band: &BandedSym, rec: &[BlockReflector]) -> u64 {
    let mut bits: Vec<f64> = band.bands().to_vec();
    bits.push(band.bandwidth() as f64);
    for r in rec {
        bits.push(r.row0 as f64);
        bits.extend_from_slice(r.u.data());
        bits.extend_from_slice(r.t.data());
    }
    bit_hash(bits)
}

/// Full ledger state: the folded `Costs` plus the per-processor
/// flop/word/superstep breakdowns (the folded maxima could agree by
/// accident; the raw per-processor tallies cannot).
type Ledger = (Costs, Vec<u64>, Vec<u64>, Vec<u64>);

fn ledger(machine: &Machine) -> Ledger {
    (
        machine.report(),
        machine.flops_per_proc(),
        machine.comm_per_proc(),
        machine.steps_per_proc(),
    )
}

fn full_to_band_run(n: usize, b: usize, p: usize, c: usize, seed: u64) -> (u64, Ledger) {
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, c);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -3.0, 3.0));
    let mut rec = Vec::new();
    let band = try_full_to_band(&machine, &params, &a, b, Some(&mut rec)).unwrap();
    (band_fingerprint(&band, &rec), ledger(&machine))
}

fn band_to_band_run(
    n: usize,
    b: usize,
    h: usize,
    p: usize,
    seed: u64,
) -> (u64, Ledger) {
    let machine = Machine::new(MachineParams::new(p));
    let grid = Grid::all(p);
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = gen::random_banded(&mut rng, n, b);
    let bm = BandedSym::from_dense(&dense, b, b);
    let mut rec = Vec::new();
    let out = try_band_to_band(&machine, &grid, &bm, h, 1, Some(&mut rec)).unwrap();
    (band_fingerprint(&out, &rec), ledger(&machine))
}

/// A standalone CA-SBR halving or Lang reduction of a random band.
fn thin_band_run(lang: bool, n: usize, b: usize, p: usize, seed: u64) -> (u64, Ledger) {
    let machine = Machine::new(MachineParams::new(p));
    let grid = Grid::all(p);
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = gen::random_banded(&mut rng, n, b);
    let bm = BandedSym::from_dense(&dense, b, b);
    let mut rec = Vec::new();
    let out = if lang {
        lang_band_to_tridiagonal(&machine, &grid, &bm, Some(&mut rec))
    } else {
        ca_sbr(&machine, &grid, &bm, Some(&mut rec))
    };
    (band_fingerprint(&out, &rec), ledger(&machine))
}

fn solve_run(n: usize, p: usize, seed: u64) -> (u64, Ledger) {
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -2.0, 2.0));
    let (ev, v, _) = try_symm_eigen_25d_vectors(&machine, &params, &a).unwrap();
    let mut bits = ev;
    bits.extend_from_slice(v.data());
    (bit_hash(bits), ledger(&machine))
}

/// FNV-1a over the three per-processor tallies (integers, so the pin
/// is portable across hosts).
fn tally_hash(l: &Ledger) -> u64 {
    fnv1a(l.1.iter().chain(&l.2).chain(&l.3).copied())
}

/// Run `case` with the pool available and under a core budget of 1
/// (nothing queued: every kernel piece inline on this thread) and demand
/// bitwise + ledger equality. Returns the shared ledger.
fn assert_schedules_agree<F>(label: &str, case: F) -> Ledger
where
    F: Fn() -> (u64, Ledger),
{
    let (pool_hash, pool_ledger) = case();
    let (inl_hash, inl_ledger) = with_forced_serial(&case);
    assert_eq!(
        format!("{pool_hash:016x}"),
        format!("{inl_hash:016x}"),
        "{label}: pooled output bits diverged from the inline schedule"
    );
    assert_eq!(
        pool_ledger.0, inl_ledger.0,
        "{label}: folded F/W/Q/S ledger diverged"
    );
    assert_eq!(pool_ledger.1, inl_ledger.1, "{label}: per-proc flops diverged");
    assert_eq!(pool_ledger.2, inl_ledger.2, "{label}: per-proc words diverged");
    assert_eq!(
        pool_ledger.3, inl_ledger.3,
        "{label}: per-proc supersteps diverged"
    );
    pool_ledger
}

/// [`assert_schedules_agree`], plus the ledger must equal the case's
/// entry in [`PINS`].
fn assert_paths_agree<F>(label: &str, case: F)
where
    F: Fn() -> (u64, Ledger),
{
    let ledger = assert_schedules_agree(label, case);
    let c = ledger.0;
    let got = (
        [
            c.flops,
            c.horizontal_words,
            c.vertical_words,
            c.supersteps,
            c.peak_memory_words,
            c.total_volume_words,
            c.total_flops,
        ],
        tally_hash(&ledger),
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!("    (\"{label}\", {:?}, 0x{:016x}),", got.0, got.1);
        return;
    }
    let pin = PINS
        .iter()
        .find(|p| p.0 == label)
        .unwrap_or_else(|| panic!("{label}: no pinned ledger"));
    assert_eq!(got.0, pin.1, "{label}: ledger drifted from its pin");
    assert_eq!(
        format!("{:016x}", got.1),
        format!("{:016x}", pin.2),
        "{label}: per-processor tallies drifted from its pin"
    );
}

/// The issue's sweep sizes: one in-regime power-of-two-ish size, one
/// odd, one `2^k + 1` pair that makes every panel and window ragged.
const SWEEP_N: [usize; 4] = [48, 65, 129, 257];

#[test]
fn full_to_band_dag_matches_barrier_bitwise() {
    // Ragged b (n % b != 0) so the last panel is short on every size the
    // dense stage can afford in a debug-profile test run.
    for (n, b) in [(48, 7), (48, 16), (65, 9), (65, 12)] {
        assert_paths_agree(&format!("full_to_band n={n} b={b}"), || {
            full_to_band_run(n, b, 4, 1, 1000 + n as u64)
        });
    }
    // Replicated grids (c > 1): line 10's per-layer allocations make the
    // peak-memory mark `M` depend on the order of charges, and the panel
    // QR runs on a proper subset of the 64 ranks (ragged last panel
    // included at n = 64, b = 10).
    for (n, b, p, c) in [(48, 8, 8, 2), (64, 10, 64, 4)] {
        assert_paths_agree(&format!("full_to_band n={n} b={b} p={p} c={c}"), || {
            full_to_band_run(n, b, p, c, 1000 + n as u64)
        });
    }
}

#[test]
fn band_to_band_dag_matches_barrier_bitwise_ragged_sweep() {
    // h ∤ b everywhere: the clamped final halving of the arbitrary-n
    // schedule produces exactly these shapes.
    for n in SWEEP_N {
        for (b, h) in [(9, 4), (7, 3), (12, 5)] {
            for p in [1, 4] {
                assert_paths_agree(&format!("band_to_band n={n} b={b} h={h} p={p}"), || {
                    band_to_band_run(n, b, h, p, 2000 + n as u64)
                });
            }
        }
    }
}

#[test]
fn band_to_band_parallel_qr_leg_is_pinned() {
    // nr·h = 200·100 words on a 4-processor QR prefix: the one shape in
    // the suite whose bulge blocks are factored by `rect_qr` (line 16 on
    // `p·h/n` processors) instead of locally on the group leader.
    assert_paths_agree("band_to_band n=400 b=200 h=100 p=16", || {
        band_to_band_run(400, 200, 100, 16, 2400)
    });
}

#[test]
fn thin_band_stages_are_pinned() {
    assert_paths_agree("ca_sbr n=64 b=8 p=4", || thin_band_run(false, 64, 8, 4, 4064));
    assert_paths_agree("lang n=48 b=6 p=4", || thin_band_run(true, 48, 6, 4, 4048));
}

#[test]
fn full_solve_dag_matches_barrier_bitwise() {
    // n = 129 enters the finale at a band-width of 33, wide enough for
    // the sweep to record compact-WY blocks; the other two record one
    // reflector per chase, as the barrier-era drivers did.
    for n in [48, 65, 129] {
        assert_paths_agree(&format!("symm_eigen_25d_vectors n={n}"), || {
            solve_run(n, 4, 3000 + n as u64)
        });
    }
}

#[test]
fn dag_path_is_deterministic_run_to_run() {
    // Same problem, two independent executions: neither the output nor
    // the ledger may vary from run to run.
    let first = band_to_band_run(129, 10, 3, 4, 42);
    let second = band_to_band_run(129, 10, 3, 4, 42);
    assert_eq!(first.0, second.0, "output bits varied between runs");
    assert_eq!(first.1, second.1, "ledger varied between runs");
}

proptest! {
    // Each case runs two reductions; keep the count modest so the suite
    // stays inside the tier-1 budget in the debug profile.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized ragged shapes over the issue's size sweep: any
    /// `(n, b, h)` with `h ∤ b` must be bit-identical between the pooled
    /// and inline schedules, band words and transforms and ledger alike.
    #[test]
    fn band_to_band_paths_agree_on_random_ragged_shapes(
        n_idx in 0usize..SWEEP_N.len(),
        b in 5usize..=12,
        h in 2usize..=4,
        p_idx in 0usize..3,
        seed in 0u64..1 << 16,
    ) {
        let n = SWEEP_N[n_idx];
        let p = [1usize, 2, 4][p_idx];
        prop_assume!(!b.is_multiple_of(h)); // ragged by construction
        assert_schedules_agree(
            &format!("proptest band_to_band n={n} b={b} h={h} p={p} seed={seed}"),
            || band_to_band_run(n, b, h, p, seed),
        );
    }
}
