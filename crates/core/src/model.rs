//! Closed-form cost models: the paper's asymptotic expressions as
//! evaluatable formulas.
//!
//! Each function returns the *dominant-term* prediction (unit constants)
//! of a lemma or theorem. They serve three purposes: (1) the
//! `model_check` harness compares them against the measured ledger,
//! (2) tests pin the measured/model ratio into a band so accounting
//! regressions are caught, and (3) downstream users can evaluate the
//! tuning space (`p`, `c`, `b`) without running a simulation.

use crate::params::EigenParams;

/// Predicted costs (dominant terms, unit constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCosts {
    /// Computation `F`.
    pub flops: f64,
    /// Horizontal words `W`.
    pub horizontal_words: f64,
    /// Vertical words `Q`.
    pub vertical_words: f64,
    /// Supersteps `S`.
    pub supersteps: f64,
    /// Memory per processor `M`.
    pub memory_words: f64,
}

/// Lemma III.3: Streaming-MM of a replicated `m×n` against `n×k` on a
/// `q×q×c` grid with streaming depth `w`.
pub fn mm_streaming(m: usize, n: usize, k: usize, q: usize, c: usize, w: usize) -> ModelCosts {
    let (mf, nf, kf) = (m as f64, n as f64, k as f64);
    let p = (q * q * c) as f64;
    let p_delta = (q * c) as f64;
    ModelCosts {
        flops: 2.0 * mf * nf * kf / p,
        horizontal_words: (mf * kf + nf * kf) / p_delta,
        vertical_words: (mf * kf + nf * kf) / p_delta,
        supersteps: 2.0 * w as f64 + 2.0,
        memory_words: mf * nf / ((q * q) as f64) + (mf * kf + nf * kf) / (w as f64 * p_delta),
    }
}

/// Theorem III.6 (+ Cor. III.7): rectangular QR of `m×n` (`m ≥ n`) on
/// `p` processors at the given `δ`.
pub fn qr_rectangular(m: usize, n: usize, p: usize, delta: f64) -> ModelCosts {
    let (mf, nf, pf) = (m as f64, n as f64, p as f64);
    ModelCosts {
        flops: 2.0 * mf * nf * nf / pf,
        horizontal_words: mf.powf(delta) * nf.powf(2.0 - delta) / pf.powf(delta) + mf * nf / pf,
        vertical_words: mf * nf / pf,
        supersteps: (nf * pf / mf).max(1.0).powf(delta) * pf.log2().max(1.0).powi(2),
        memory_words: (nf.powf(delta) * mf.powf(1.0 - delta) / pf.powf(1.0 - delta)).powi(2),
    }
}

/// Lemma IV.1: 2.5D full→band reduction of an `n×n` matrix to
/// band-width `b`.
pub fn full_to_band(n: usize, b: usize, params: &EigenParams) -> ModelCosts {
    let (nf, _bf) = (n as f64, b as f64);
    let p = params.p as f64;
    let p_delta = params.p_delta() as f64;
    let q2 = (params.q * params.q) as f64;
    ModelCosts {
        flops: nf.powi(3) / p,
        horizontal_words: nf * nf / p_delta,
        vertical_words: nf * nf / p_delta,
        supersteps: p_delta * p.log2().max(1.0).powi(2),
        memory_words: nf * nf / q2,
    }
}

/// Lemma IV.2: one CA-SBR halving of an `n×n` band-`b` matrix on `p̂`
/// processors (`b ≤ n/p̂`).
pub fn ca_sbr_halving(n: usize, b: usize, p_hat: usize) -> ModelCosts {
    let (nf, bf, pf) = (n as f64, b as f64, p_hat as f64);
    ModelCosts {
        flops: nf * nf * bf / pf,
        horizontal_words: nf * bf / pf, // per-processor share of the O(nb) total
        vertical_words: nf * nf / pf,
        supersteps: pf,
        memory_words: nf * bf / pf,
    }
}

/// Lemma IV.3: one 2.5D band-to-band reduction `b → b/k` on `p`
/// processors at the given `δ`.
pub fn band_to_band(n: usize, b: usize, k: usize, p: usize, delta: f64) -> ModelCosts {
    let (nf, bf, kf, pf) = (n as f64, b as f64, k as f64, p as f64);
    ModelCosts {
        flops: nf * nf * bf / pf,
        horizontal_words: nf.powf(1.0 + delta) * bf.powf(1.0 - delta) / pf.powf(delta),
        vertical_words: nf.powf(1.0 + delta) * bf.powf(1.0 - delta) / pf.powf(delta),
        supersteps: kf.powf(delta) * nf.powf(1.0 - delta) * pf.powf(delta) / bf.powf(1.0 - delta)
            * pf.log2().max(1.0),
        memory_words: (nf.powf(1.0 - delta) * bf.powf(delta) / pf.powf(1.0 - delta)).powi(2),
    }
}

/// Theorem IV.4: the complete 2.5D symmetric eigensolver.
pub fn eigensolver(n: usize, params: &EigenParams) -> ModelCosts {
    let nf = n as f64;
    let p = params.p as f64;
    let p_delta = params.p_delta() as f64;
    let lg = p.log2().max(1.0);
    ModelCosts {
        flops: nf.powi(3) / p,
        horizontal_words: nf * nf / p_delta,
        vertical_words: nf * nf * lg / p_delta,
        supersteps: p_delta * lg * lg,
        memory_words: nf * nf / ((params.q * params.q) as f64),
    }
}

/// Table-I baselines: direct (ScaLAPACK-style) tridiagonalization.
pub fn scalapack_direct(n: usize, p: usize) -> ModelCosts {
    let (nf, pf) = (n as f64, p as f64);
    ModelCosts {
        flops: nf.powi(3) / pf,
        horizontal_words: nf * nf / pf.sqrt(),
        vertical_words: nf.powi(3) / pf,
        supersteps: nf * pf.log2().max(1.0),
        memory_words: nf * nf / pf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_model_halves_with_c() {
        let a = mm_streaming(256, 256, 16, 4, 1, 1);
        let b = mm_streaming(256, 256, 16, 4, 2, 1);
        assert!((a.horizontal_words / b.horizontal_words - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eigensolver_model_scales_with_delta() {
        // W at δ = 2/3 (p = 64, c = 4) is half of δ = 1/2 (c = 1).
        let w1 = eigensolver(1024, &EigenParams::new(64, 1)).horizontal_words;
        let w4 = eigensolver(1024, &EigenParams::new(64, 4)).horizontal_words;
        assert!((w1 / w4 - 2.0).abs() < 1e-12); // p^δ = qc: 8 vs 16
    }

    #[test]
    fn direct_vertical_dominates_banded() {
        let direct = scalapack_direct(4096, 64);
        let banded = eigensolver(4096, &EigenParams::new(64, 1));
        assert!(direct.vertical_words > 10.0 * banded.vertical_words);
    }

    #[test]
    fn qr_model_tall_is_cheap() {
        let tall = qr_rectangular(1 << 16, 32, 64, 0.5);
        let square = qr_rectangular(2048, 1024, 64, 0.5);
        assert!(tall.horizontal_words < square.horizontal_words);
    }

    #[test]
    fn measured_full_to_band_tracks_model() {
        use ca_bsp::{Machine, MachineParams};
        use ca_dla::gen;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 128;
        let p = 16;
        let params = EigenParams::new(p, 1);
        let b = params.initial_bandwidth(n);
        let mut rng = StdRng::seed_from_u64(700);
        let a = gen::random_symmetric(&mut rng, n);
        let m = Machine::new(MachineParams::new(p));
        let _ = crate::try_full_to_band(&m, &params, &a, b, None).unwrap();
        let measured = m.report();
        let model = full_to_band(n, b, &params);
        // Ratios within an order of magnitude (unit-constant model).
        let rw = measured.horizontal_words as f64 / model.horizontal_words;
        let rf = measured.flops as f64 / model.flops;
        assert!((0.5..60.0).contains(&rw), "W ratio {rw}");
        assert!((0.5..60.0).contains(&rf), "F ratio {rf}");
    }
}
