//! The tridiagonal solvers' public entries, pinned and scaled.
//!
//! * **Output bits.** FNV hashes of `try_tridiag_eigen`'s `(λ, Z)`,
//!   `dnc_eigen`'s `(λ, Z)` and `dnc_eigenvalues`' `λ` on a handful of
//!   inputs — the two QL leaf sizes either side of the D&C's `LEAF = 40`,
//!   the minimal orders and a glued Wilkinson matrix. A change to the
//!   layout of the rotations' accumulation or of the leaves' carried rows
//!   must leave every bit as it was. After an intentional change of the
//!   arithmetic, `UPDATE_GOLDEN=1 cargo test -p ca-dla --test
//!   tridiag_solvers -- --nocapture` prints the new pin lines.
//! * **Scaling.** Each entry solves `s·T` for `s` from 1e-300 to 1e300
//!   and must return `s` times the unit-scale eigenvalues to a small
//!   multiple of `n·ε·max|λ|`.
//! * **Graded input.** A tridiagonal graded from 1 to 1e-300, either
//!   end small, converges through every entry to Sturm bisection's
//!   eigenvalues with orthonormal eigenvectors.

use ca_dla::dnc::{dnc_eigen, dnc_eigenvalues};
use ca_dla::tridiag::{try_banded_eigenvalues, try_tridiag_eigen, try_tridiag_eigenvalues};
use ca_dla::{gen, BandedSym, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tridiagonal(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let e = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (d, e)
}

/// `copies` Wilkinson `W₂₁⁺` blocks joined by off-diagonals `glue`: every
/// block's close top pair recurs in each copy, so the spectrum has
/// `copies`-fold clusters split only by `glue`.
fn glued_wilkinson(copies: usize, glue: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut d, mut e) = (Vec::new(), Vec::new());
    for c in 0..copies {
        if c > 0 {
            e.push(glue);
        }
        d.extend((0..21).map(|i| (i as f64 - 10.0).abs()));
        e.extend([1.0; 20]);
    }
    (d, e)
}

/// The inputs the pins are taken on.
fn inputs() -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
    let heavy: Vec<f64> = (0..97).map(|i| 1.0 + (i % 3) as f64).collect();
    let (gd, ge) = glued_wilkinson(4, 1e-8);
    let (r40, s40) = random_tridiagonal(401, 40);
    let (r41, s41) = random_tridiagonal(411, 41);
    let (r300, s300) = random_tridiagonal(3001, 300);
    vec![
        ("n=1", vec![-2.75], vec![]),
        ("n=2", vec![1.0, -0.5], vec![0.75]),
        ("random n=40", r40, s40),
        ("random n=41", r41, s41),
        ("glued Wilkinson 4 x W21+", gd, ge),
        ("repeated diagonal n=97", heavy, vec![1e-6; 96]),
        ("random n=300", r300, s300),
    ]
}

fn fnv(h: u64, xs: &[f64]) -> u64 {
    xs.iter()
        .fold(h, |h, x| (h ^ x.to_bits()).wrapping_mul(0x1000_0000_01b3))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn pair_hash(lam: &[f64], z: &Matrix) -> u64 {
    fnv(FNV_BASIS, lam) ^ gen::fingerprint(z).rotate_left(1)
}

/// `(input, try_tridiag_eigen (λ, Z), dnc_eigen (λ, Z), dnc_eigenvalues λ)`.
const PINS: [(&str, u64, u64, u64); 7] = [
    (
        "n=1",
        0xf79d38d58a02d860,
        0xf79d38d58a02d860,
        0x72d8e84c8601b7df,
    ),
    (
        "n=2",
        0x178fe8c08c97398b,
        0x178fe8c08c97398b,
        0x401154bc6e99c724,
    ),
    (
        "random n=40",
        0x9eda1334440708f8,
        0x9eda1334440708f8,
        0xf047e430ce9e96f2,
    ),
    (
        "random n=41",
        0xf2ebd60217c4c846,
        0x399658e73523c544,
        0x04e94b7ed15dfe52,
    ),
    (
        "glued Wilkinson 4 x W21+",
        0x22ca70a3ab5699b2,
        0x912e00516279ce27,
        0x08def5e60e2c4772,
    ),
    (
        "repeated diagonal n=97",
        0x294ea7a414b95ebb,
        0xecb1ceb133649d0a,
        0xbd34774c9f3d93ca,
    ),
    (
        "random n=300",
        0x7d0a7b921c545c9f,
        0xe994c8067c0d9615,
        0xe094c7401e8d4357,
    ),
];

#[test]
fn solver_output_bits_are_pinned() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for ((name, d, e), pin) in inputs().into_iter().zip(PINS) {
        let (lam, z) = try_tridiag_eigen(&d, &e).unwrap();
        let ql = pair_hash(&lam, &z);
        let (lam, z) = dnc_eigen(&d, &e).unwrap();
        let full = pair_hash(&lam, &z);
        let values = fnv(FNV_BASIS, &dnc_eigenvalues(&d, &e).unwrap());
        if update {
            println!("    (\"{name}\", {ql:#018x}, {full:#018x}, {values:#018x}),");
            continue;
        }
        assert_eq!(name, pin.0, "PINS and inputs() list different inputs");
        assert_eq!(ql, pin.1, "{name}: try_tridiag_eigen bits moved");
        assert_eq!(full, pin.2, "{name}: dnc_eigen bits moved");
        assert_eq!(values, pin.3, "{name}: dnc_eigenvalues bits moved");
    }
}

/// The tridiagonal `(d, e)` as a band of width 1.
fn tridiagonal_band(d: &[f64], e: &[f64]) -> BandedSym {
    let mut b = BandedSym::zeros(d.len(), 1, 1);
    for (i, &x) in d.iter().enumerate() {
        b.set(i, i, x);
    }
    for (i, &x) in e.iter().enumerate() {
        b.set(i + 1, i, x);
    }
    b
}

type Solver = fn(&[f64], &[f64]) -> Vec<f64>;

/// Every public entry that returns a tridiagonal's eigenvalues.
const SOLVERS: [(&str, Solver); 5] = [
    ("try_tridiag_eigenvalues", |d, e| {
        try_tridiag_eigenvalues(d, e).unwrap()
    }),
    ("try_tridiag_eigen", |d, e| {
        try_tridiag_eigen(d, e).unwrap().0
    }),
    ("dnc_eigen", |d, e| dnc_eigen(d, e).unwrap().0),
    ("dnc_eigenvalues", |d, e| dnc_eigenvalues(d, e).unwrap()),
    ("try_banded_eigenvalues", |d, e| {
        try_banded_eigenvalues(&tridiagonal_band(d, e)).unwrap()
    }),
];

/// `s·T` for `s` far outside the safe range, both ways: every entry
/// returns `s` times its unit-scale eigenvalues to `4·n·ε·max|λ|`. The
/// D&C's deflation test and secular equation square the entries, so
/// without a guard they lose digits below ≈ 1e-150.
#[test]
fn solvers_are_scale_invariant() {
    let n = 64;
    let (d, e) = random_tridiagonal(6401, n);
    for (name, solve) in SOLVERS {
        let unit = solve(&d, &e);
        let lmax = unit.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = 4.0 * n as f64 * f64::EPSILON * lmax;
        for s in [1e-300, 1e-200, 1e-150, 1e150, 1e160, 1e300] {
            let ds: Vec<f64> = d.iter().map(|x| x * s).collect();
            let es: Vec<f64> = e.iter().map(|x| x * s).collect();
            let ev = solve(&ds, &es);
            let err = ev
                .iter()
                .zip(&unit)
                .fold(0.0f64, |m, (x, u)| m.max((x / s - u).abs()));
            assert!(
                err <= tol,
                "{name}, s = {s:e}: max |λ/s − λ₁| = {err:e} > {tol:e}"
            );
        }
    }
}

/// A tridiagonal graded from 1 at the top down to 1e-300 at the bottom:
/// `dᵢ = 10^(−300·i/n)`, `eᵢ = ½·10^(−300·(i + ½)/n)`.
fn graded(n: usize) -> (Vec<f64>, Vec<f64>) {
    let grade = |t: f64| 10f64.powf(-300.0 * t / n as f64);
    let d = (0..n).map(|i| grade(i as f64)).collect();
    let e = (0..n - 1).map(|i| 0.5 * grade(i as f64 + 0.5)).collect();
    (d, e)
}

/// The largest entry of `|ZᵀZ − I|` and of `|T·Z − Z·Λ|`, the latter
/// formed from `T`'s three diagonals.
fn eigenpair_residuals(d: &[f64], e: &[f64], lam: &[f64], z: &Matrix) -> (f64, f64) {
    let n = d.len();
    let ztz = ca_dla::matmul(z, ca_dla::Trans::T, z, ca_dla::Trans::N);
    let orth = ztz.max_diff(&Matrix::identity(n));
    let mut res = 0.0f64;
    for i in 0..n {
        for (j, l) in lam.iter().enumerate() {
            let mut tz = d[i] * z.get(i, j);
            if i > 0 {
                tz += e[i - 1] * z.get(i - 1, j);
            }
            if i + 1 < n {
                tz += e[i] * z.get(i + 1, j);
            }
            res = res.max((tz - z.get(i, j) * l).abs());
        }
    }
    (orth, res)
}

/// The graded matrix, small end at the bottom and (reversed) at the top,
/// through every tridiagonal entry: each converges, its eigenvalues lie
/// within `8·n·ε·‖T‖` of Sturm bisection's, and the eigenvector entries
/// return `Z` with `ZᵀZ − I` and `T·Z − Z·Λ` within `1e-10` and
/// `1e-10·(1 + ‖T‖)`. QL alone, chasing towards a small top, has its
/// rotation sines underflow on this matrix and stalls.
#[test]
fn graded_input_converges_either_way_up() {
    type Entry = fn(&[f64], &[f64]) -> (Vec<f64>, Option<Matrix>);
    const ENTRIES: [(&str, Entry); 4] = [
        ("try_tridiag_eigenvalues", |d, e| {
            (try_tridiag_eigenvalues(d, e).unwrap(), None)
        }),
        ("try_tridiag_eigen", |d, e| {
            let (lam, z) = try_tridiag_eigen(d, e).unwrap();
            (lam, Some(z))
        }),
        ("dnc_eigen", |d, e| {
            let (lam, z) = dnc_eigen(d, e).unwrap();
            (lam, Some(z))
        }),
        ("dnc_eigenvalues", |d, e| {
            (dnc_eigenvalues(d, e).unwrap(), None)
        }),
    ];
    for n in [21usize, 40, 41, 97, 128, 1024] {
        let (d, e) = graded(n);
        let rd: Vec<f64> = d.iter().rev().copied().collect();
        let re: Vec<f64> = e.iter().rev().copied().collect();
        for (way, d, e) in [("small end down", &d, &e), ("small end up", &rd, &re)] {
            let norm = (0..n).fold(0.0f64, |m, i| {
                let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
                let right = if i + 1 < n { e[i].abs() } else { 0.0 };
                m.max(d[i].abs() + left + right)
            });
            let tol = 8.0 * n as f64 * f64::EPSILON * norm;
            let bis = ca_dla::sturm::bisection_eigenvalues(d, e, f64::EPSILON * norm);
            for (name, solve) in ENTRIES {
                let at = format!("{name}, n = {n}, {way}");
                let (lam, z) = solve(d, e);
                let dist = ca_dla::tridiag::spectrum_distance(&lam, &bis);
                assert!(dist <= tol, "{at}: {dist:e} from bisection (tol {tol:e})");
                if let Some(z) = z {
                    let (orth, res) = eigenpair_residuals(d, e, &lam, &z);
                    assert!(orth < 1e-10, "{at}: |ZᵀZ − I| = {orth:e}");
                    assert!(res < 1e-10 * (1.0 + norm), "{at}: |T·Z − Z·Λ| = {res:e}");
                }
            }
        }
    }
}
