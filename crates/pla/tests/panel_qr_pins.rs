//! The panel QR's output bits, pinned.
//!
//! `rect_qr` (its TSQR base case and its column recursion),
//! `tsqr_explicit` and `reconstruct` are the building blocks of
//! full→band's line 7 and band→band's distributed leg. A change to how
//! they hold or move their buffers must leave every bit as it was: the
//! pins are FNV hashes (`gen::fingerprint`) of each output, over group
//! sizes 1, 2 and 4 and a shape wide enough to take the column
//! recursion. After an intentional change of the arithmetic,
//! `UPDATE_GOLDEN=1 cargo test -p ca-pla --test panel_qr_pins --
//! --nocapture` prints the new pin lines.

use ca_bsp::{Machine, MachineParams};
use ca_dla::{gen, Matrix};
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::reconstruct::reconstruct;
use ca_pla::rect_qr::rect_qr;
use ca_pla::tsqr::tsqr_explicit;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(rows, cols, g)`: the shapes every routine is pinned on. With
/// `g = 4`, `96 × 64` is wider than `max(32, 96/4)` columns and takes
/// rect-QR's column recursion; the others are TSQR base cases.
const SHAPES: [(usize, usize, usize); 4] = [(40, 12, 1), (64, 20, 2), (96, 24, 4), (96, 64, 4)];

/// `rect_qr`'s `(U, T, R)`, in [`SHAPES`] order.
const RECT_QR: [[u64; 3]; 4] = [
    [0xd2ab532806361546, 0xac1e2fd42878e342, 0x908a1ead6eac4017],
    [0x000658c4de0128a2, 0x24b3131f6a5b5b67, 0xd85cac2257041cff],
    [0x044a1c612b95cf4d, 0x2a6ded5175d4b056, 0x762bf493eba4dc39],
    [0xfaa74e4be44c0ecc, 0x9400f720e5da3a07, 0x4f4c08e0c0c35e00],
];

/// `tsqr_explicit`'s `(Q, R)`, in [`SHAPES`] order.
const TSQR: [[u64; 2]; 4] = [
    [0xb56cb9d1e9bb28f1, 0x908a1ead6eac4017],
    [0x1662b70510c67845, 0xd85cac2257041cff],
    [0xa518de516b3e987e, 0x762bf493eba4dc39],
    [0xbe97282a7ef79b24, 0xacfa5d98dca5b578],
];

/// `reconstruct`'s `(U, T, S)` of `tsqr_explicit`'s `Q`, in [`SHAPES`]
/// order.
const RECONSTRUCT: [[u64; 3]; 4] = [
    [0x6479f85776543a0d, 0xe3e1349ae1502517, 0x4f01dcda1d106495],
    [0x000658c4de0128a2, 0x24b3131f6a5b5b67, 0x65ad6efd354b0935],
    [0x044a1c612b95cf4d, 0x2a6ded5175d4b056, 0xe04317d7003c2305],
    [0xecdcc148329c7c7a, 0x83929280205fb703, 0x559c7f3a46fd0825],
];

/// The input of one shape, distributed in a 1D row layout over `g`
/// processors of a fresh machine.
fn input(rows: usize, cols: usize, g: usize) -> (Machine, DistMatrix) {
    let m = Machine::new(MachineParams::new(g));
    let grid = Grid::new_2d((0..g).collect(), g, 1);
    let a = gen::random_matrix(
        &mut StdRng::seed_from_u64((rows * cols + g) as u64),
        rows,
        cols,
    );
    let d = DistMatrix::from_dense(&m, &grid, &a);
    (m, d)
}

fn fp(a: &Matrix) -> u64 {
    gen::fingerprint(a)
}

#[test]
fn panel_qr_output_bits_are_pinned() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let (mut rect, mut ts, mut rc) = (Vec::new(), Vec::new(), Vec::new());
    for (rows, cols, g) in SHAPES {
        let (m, a) = input(rows, cols, g);
        let f = rect_qr(&m, &a);
        rect.push([fp(f.u.dense()), fp(&f.t), fp(&f.r)]);

        let (m, a) = input(rows, cols, g);
        let (mut q, r) = tsqr_explicit(&m, &a);
        ts.push([fp(q.dense()), fp(&r)]);
        let rec = reconstruct(&m, &mut q);
        let s = Matrix::from_vec(1, rec.s.len(), rec.s.clone());
        rc.push([fp(rec.u.dense()), fp(&rec.t), fp(&s)]);
    }
    if update {
        for (name, rows) in [("RECT_QR", &rect), ("RECONSTRUCT", &rc)] {
            println!("const {name}: [[u64; 3]; 4] = [");
            for [x, y, z] in rows.iter() {
                println!("    [{x:#018x}, {y:#018x}, {z:#018x}],");
            }
            println!("];");
        }
        println!("const TSQR: [[u64; 2]; 4] = [");
        for [x, y] in &ts {
            println!("    [{x:#018x}, {y:#018x}],");
        }
        println!("];");
        return;
    }
    for (i, shape) in SHAPES.iter().enumerate() {
        assert_eq!(
            rect[i], RECT_QR[i],
            "{shape:?}: rect_qr's (U, T, R) bits moved"
        );
        assert_eq!(
            ts[i], TSQR[i],
            "{shape:?}: tsqr_explicit's (Q, R) bits moved"
        );
        assert_eq!(
            rc[i], RECONSTRUCT[i],
            "{shape:?}: reconstruct's (U, T, S) bits moved"
        );
    }
}
