//! The input generator's output bits, pinned.
//!
//! `gen::random_orthogonal` forms `Q` from the compact-WY factors of a
//! random matrix's QR, and `gen::symmetric_with_spectrum` builds
//! `Q·diag(λ)·Qᵀ` on it: every benchmark input and most test inputs come
//! from these two. A change to how `Q` is formed or applied must leave
//! every bit as it was. After an intentional change of the arithmetic,
//! `UPDATE_GOLDEN=1 cargo test -p ca-dla --test gen_pins -- --nocapture`
//! prints the new pin lines.

use ca_dla::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(n, random_orthogonal, symmetric_with_spectrum)`: FNV hashes
/// (`gen::fingerprint`) at seed `n`, on a linspace spectrum in `[−1, 1]`.
const PINS: [(usize, u64, u64); 6] = [
    (1, 0xc2a2e84c8601b7df, 0x42a2e84c8601b7df),
    (2, 0x334ed179b49cecc5, 0xb0b83a0e9dc71587),
    (7, 0x72cc4ebd18ad5d6c, 0x2b0f9cabaaa7a095),
    (64, 0xb7bc658c0e15c419, 0xbdd6b0bdbfb5146a),
    (97, 0xf1ac06cf109775f5, 0xc7df996123fd04e6),
    (300, 0xa1ae0db6d4811546, 0x2d90b7299912ceae),
];

#[test]
fn generator_output_bits_are_pinned() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for (n, q_pin, a_pin) in PINS {
        let q = gen::random_orthogonal(&mut StdRng::seed_from_u64(n as u64), n);
        let lambda = gen::linspace_spectrum(n, -1.0, 1.0);
        let a = gen::symmetric_with_spectrum(&mut StdRng::seed_from_u64(n as u64), &lambda);
        let (q_fp, a_fp) = (gen::fingerprint(&q), gen::fingerprint(&a));
        if update {
            println!("    ({n}, {q_fp:#018x}, {a_fp:#018x}),");
            continue;
        }
        assert_eq!(q_fp, q_pin, "n = {n}: random_orthogonal bits moved");
        assert_eq!(a_fp, a_pin, "n = {n}: symmetric_with_spectrum bits moved");
    }
}
