//! The one compact-WY routine (`ca_dla::qr::Wy`) against its plain form.
//!
//! `Wy` skips the exact zeros of `U` (unit lower-trapezoidal) and `T`
//! (upper triangular) and reads an identity right-hand side as `Uᵀ` in
//! place; `oracle::apply_wy_reference` runs the same three products on
//! the full operands. By GEMM's cell contract the two must agree bit
//! for bit: `Q` and `Qᵀ`, from the left and from the right, on a dense
//! `C`, on `I[:, ..ncols]` and on `[S; 0]` (the last two written as two
//! row windows of one coefficient, as TSQR's down-sweep does), for
//! ragged `m`, `k` and `ncols` — including `k` and `m` past GEMM's
//! 256-deep chunk, where a skipped head of the inner dimension may only
//! start at a chunk boundary. `U`'s strict lower part carries some `−0`
//! entries, which `Uᵀ·I` would have turned into `+0`. A stray non-zero
//! in either structural triangle makes `Wy::new` claim no structure, and
//! the products are still the plain form.

use ca_dla::gemm::Trans;
use ca_dla::oracle::apply_wy_reference;
use ca_dla::qr::{apply_q_right, apply_qt, explicit_q, qr_factor, Rhs, Side, Wy};
use ca_dla::workspace::with_ws;
use ca_dla::Matrix;
use proptest::prelude::*;

/// `U` (`m × k`, unit diagonal, exact `+0` above it, every
/// `neg_zero`-th strict-lower entry `−0`) and an upper-triangular `T`.
fn factors(m: usize, k: usize, vals: &[f64], neg_zero: usize) -> (Matrix, Matrix) {
    let v = |i: usize, j: usize, s: usize| vals[(i * 31 + j * 7 + s) % vals.len()];
    let u = Matrix::from_fn(m, k, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => 0.0,
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater if (i * k + j).is_multiple_of(neg_zero) => -0.0,
        std::cmp::Ordering::Greater => v(i, j, 0),
    });
    let t = Matrix::from_fn(k, k, |i, j| if i <= j { v(i, j, 3) } else { 0.0 });
    (u, t)
}

fn bits(a: &Matrix) -> Vec<u64> {
    a.data().iter().map(|x| x.to_bits()).collect()
}

fn same(what: &str, got: &Matrix, want: &Matrix) -> Result<(), String> {
    if bits(got) == bits(want) {
        return Ok(());
    }
    let (r, c) = (0..want.rows())
        .flat_map(|i| (0..want.cols()).map(move |j| (i, j)))
        .find(|&(i, j)| got.get(i, j).to_bits() != want.get(i, j).to_bits())
        .expect("bits differ somewhere");
    Err(format!(
        "{what}: cell ({r}, {c}) {:e} ≠ {:e}",
        got.get(r, c),
        want.get(r, c)
    ))
}

/// `op(Q)·C` for a structured `C` through `coeff` and two `update`
/// windows split at row `split`.
fn windows(wy: &Wy, trans: Trans, c: Rhs, m: usize, split: usize) -> Matrix {
    let mut coeff = Matrix::zeros(wy.k(), c.cols());
    wy.coeff(trans, c, &mut coeff.view_mut());
    let mut out = Matrix::zeros(m, c.cols());
    let mut v = out.view_mut();
    let (mut top, mut bot) = v.split_rows_mut(split);
    wy.update(trans, c, &coeff.view(), 0, &mut top);
    wy.update(trans, c, &coeff.view(), split, &mut bot);
    out
}

/// Every application of `(U, T)` against the reference.
fn check(u: &Matrix, t: &Matrix, ncols: usize, srows: usize, split: usize) -> Result<(), String> {
    let (m, k) = (u.rows(), u.cols());
    let wy = Wy::new(u.view(), t.view());
    let ctx = format!("m = {m}, k = {k}, ncols = {ncols}");
    let val = |i: usize, j: usize| ((i * 13 + j * 5) % 17) as f64 / 8.0 - 1.0;
    for trans in [Trans::N, Trans::T] {
        for side in [Side::Left, Side::Right] {
            let c = match side {
                Side::Left => Matrix::from_fn(m, ncols, val),
                Side::Right => Matrix::from_fn(ncols, m, val),
            };
            let want = apply_wy_reference(u, t, trans, side, &c);
            let mut got = c.clone();
            with_ws(|ws| wy.apply(trans, side, &mut got.view_mut(), ws));
            same(&format!("{ctx}, dense {trans:?} {side:?}"), &got, &want)?;
            let public: Option<fn(&Matrix, &Matrix, &mut Matrix)> = match (trans, side) {
                (Trans::T, Side::Left) => Some(apply_qt),
                (Trans::N, Side::Right) => Some(apply_q_right),
                _ => None,
            };
            if let Some(apply) = public {
                let mut got = c.clone();
                apply(u, t, &mut got);
                same(&format!("{ctx}, {trans:?} {side:?} wrapper"), &got, &want)?;
            }
        }

        let nc = ncols.min(m);
        let eye = Matrix::from_fn(m, nc, |i, j| if i == j { 1.0 } else { 0.0 });
        let want = apply_wy_reference(u, t, trans, Side::Left, &eye);
        let got = windows(&wy, trans, Rhs::Identity(nc), m, split);
        same(&format!("{ctx}, identity {trans:?}"), &got, &want)?;
        if trans == Trans::N {
            same(&format!("{ctx}, explicit_q"), &explicit_q(u, t, nc), &want)?;
        }

        let s = Matrix::from_fn(srows, ncols, val);
        let padded = Matrix::from_fn(m, ncols, |i, j| if i < srows { s.get(i, j) } else { 0.0 });
        let want = apply_wy_reference(u, t, trans, Side::Left, &padded);
        let got = windows(&wy, trans, Rhs::Top(s.view()), m, split);
        same(
            &format!("{ctx}, [S; 0] with {srows} rows {trans:?}"),
            &got,
            &want,
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wy_matches_the_plain_products_bit_for_bit(
        m in 1usize..=96,
        picks in (0usize..1000, 0usize..1000, 0usize..1000),
        ncols in 1usize..=64,
        neg_zero in 2usize..9,
        vals in proptest::collection::vec(-2.0f64..2.0, 5..40),
        stray in 0usize..3,
    ) {
        let k = 1 + picks.0 % m;
        let (srows, split) = (picks.1 % (m + 1), picks.2 % (m + 1));
        let (mut u, mut t) = factors(m, k, &vals, neg_zero);
        // A rounding-sized entry in `U`'s upper or `T`'s lower triangle.
        let (i, j) = (picks.1 % k, picks.2 % k);
        let (i, j) = (i.min(j), i.max(j));
        match stray {
            1 if i < j => u.set(i, j, 3e-16),
            2 if i < j => t.set(j, i, -2e-16),
            _ => {}
        }
        let exact = stray == 0 || i == j;
        prop_assert_eq!(Wy::new(u.view(), t.view()).is_exact(), exact);
        let checked = check(&u, &t, ncols, srows, split);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// Past GEMM's chunk depth (256) in `m` and `k`, on synthetic factors and
/// on a real QR's.
#[test]
fn wy_matches_the_plain_products_past_one_chunk() {
    let vals: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
    for (m, k, ncols) in [(300, 270, 40), (520, 261, 33), (270, 257, 9)] {
        let (u, t) = factors(m, k, &vals, 5);
        check(&u, &t, ncols, m / 3, m / 2).unwrap();
    }
    let a = Matrix::from_fn(300, 264, |i, j| {
        vals[(i * 7 + j * 3) % vals.len()] + (i == j) as u8 as f64
    });
    let f = qr_factor(&a, usize::MAX);
    check(&f.u, &f.t, 264, 264, 264).unwrap();
}
