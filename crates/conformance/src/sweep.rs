//! Sweep drivers: run one pipeline stage at a grid point `(n, p, c)` on
//! a fresh virtual machine and return the metered `F/W/Q/S/M` delta.
//!
//! Every driver is deterministic — the input matrix is seeded from the
//! grid point — so two runs of the harness fit identical exponents.
//! Stage shapes are chosen so each varied parameter isolates one term
//! of the paper's formulas (e.g. the streaming operand count `k` is
//! held fixed so `W_mm ∝ n` in the `n`-sweep).

use ca_bsp::{Costs, Machine, MachineParams};
use ca_dla::{gen, BandedSym};
use ca_eigen::{ca_sbr, model, symm_eigen_25d, EigenParams};
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::rect_qr::rect_qr;
use ca_pla::streaming::{streaming_mm_dense, Replicated};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One pipeline stage the harness can meter in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Algorithm III.1 / Lemma III.3: replicated streaming multiply.
    StreamingMm,
    /// Theorem III.6: rectangular (panel) QR on a 1D group.
    RectQr,
    /// Algorithm IV.1 / Lemma IV.1: 2.5D full→band reduction.
    FullToBand,
    /// Algorithm IV.2 / Lemma IV.3: 2.5D band→band reduction.
    BandToBand,
    /// Lemma IV.2: one CA-SBR band halving.
    CaSbr,
    /// Algorithm IV.3 / Theorem IV.4: the end-to-end eigensolver.
    Solver,
}

impl Stage {
    /// Stable identifier used in claim ids and CONFORMANCE.json.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::StreamingMm => "streaming-mm",
            Stage::RectQr => "rect-qr",
            Stage::FullToBand => "full-to-band",
            Stage::BandToBand => "band-to-band",
            Stage::CaSbr => "ca-sbr",
            Stage::Solver => "solver",
        }
    }
}

/// A sweep grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Matrix dimension.
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Replication factor.
    pub c: usize,
}

impl Point {
    /// Convenience constructor.
    pub fn new(n: usize, p: usize, c: usize) -> Self {
        Self { n, p, c }
    }
}

/// Streaming operand width `k`: held fixed across sweeps so that the
/// Lemma III.3 bound `W = (mk + nk)/pᵟ` is linear in the swept `n`.
const STREAM_K: usize = 8;
/// Panel aspect ratio for rect-QR sweeps: `m = QR_ASPECT·n` rows.
const QR_ASPECT: usize = 4;
/// CA-SBR band-width: held fixed (Lemma IV.2 is swept in `n` at
/// constant `b`, isolating the `n·b/p̂` word term).
const SBR_BAND: usize = 8;

/// Deterministic per-point seed (fixed mixing constants; no RNG state
/// shared between points, so sweeps are order-independent).
fn seed(stage: Stage, pt: Point) -> u64 {
    let s = match stage {
        Stage::StreamingMm => 1,
        Stage::RectQr => 2,
        Stage::FullToBand => 3,
        Stage::BandToBand => 4,
        Stage::CaSbr => 5,
        Stage::Solver => 6,
    };
    0x00c0_ffee_u64
        .wrapping_mul(31)
        .wrapping_add(s)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((pt.n as u64) << 32 | (pt.p as u64) << 8 | pt.c as u64)
}

/// Band-width used by the band→band sweep at dimension `n`
/// (proportional to `n`, so the Lemma IV.3 word bound
/// `n^{1+δ}b^{1−δ}/pᵟ` stays `Θ(n²)` in the `n`-sweep).
pub fn b2b_bandwidth(n: usize) -> usize {
    (n / 8).max(4)
}

/// Target band-width of the full→band sweep: `n/8`, *independent of
/// `p`*. Algorithm IV.3 couples its band-width to `p` through
/// `b = n/max(p^{2−3δ}, log p)`; a p-sweep at that schedule would vary
/// two knobs at once and mask the Lemma IV.1 `1/pᵟ` law behind the
/// panel-count change. The solver stage keeps the coupled schedule —
/// that is the composite the paper ships — while this stage isolates
/// the lemma.
pub fn f2b_bandwidth(n: usize) -> usize {
    (n / 8).max(4)
}

/// Run `stage` at `pt` on a fresh machine and return the metered cost
/// delta of the stage proper (input generation, distribution and
/// replication are excluded — the lemmas cost the algorithm, not the
/// operand setup).
pub fn measure(stage: Stage, pt: Point) -> Costs {
    let mut span = ca_obs::span(&format!(
        "conformance {} (n={}, p={}, c={})",
        stage.name(),
        pt.n,
        pt.p,
        pt.c
    ));
    let mut rng = StdRng::seed_from_u64(seed(stage, pt));
    let machine = Machine::new(MachineParams::new(pt.p));
    let costs = match stage {
        Stage::StreamingMm => {
            let params = EigenParams::new_unchecked(pt.p, pt.c);
            let grid3 = params.grid3();
            let a = gen::random_symmetric(&mut rng, pt.n);
            let b = gen::random_matrix(&mut rng, pt.n, STREAM_K);
            Replicated::replicate(&machine, &grid3, pt.n, pt.n);
            let (_, costs) = machine.measure(|| {
                streaming_mm_dense(&machine, &grid3, &a, (0, 0, pt.n, pt.n), false, &b, 1)
            });
            costs
        }
        Stage::RectQr => {
            let a = gen::random_matrix(&mut rng, QR_ASPECT * pt.n, pt.n);
            let grid = Grid::all(pt.p);
            let da = DistMatrix::from_dense(&machine, &grid, &a);
            let (_, costs) = machine.measure(|| rect_qr(&machine, &da));
            costs
        }
        Stage::FullToBand => {
            let params = EigenParams::new_unchecked(pt.p, pt.c);
            let a = gen::random_symmetric(&mut rng, pt.n);
            let b = f2b_bandwidth(pt.n);
            let (_, costs) =
                machine.measure(|| ca_eigen::full_to_band(&machine, &params, &a, b));
            costs
        }
        Stage::BandToBand => {
            let b = b2b_bandwidth(pt.n);
            let dense = gen::random_banded(&mut rng, pt.n, b);
            let bm = BandedSym::from_dense(&dense, b, b);
            let grid = Grid::all(pt.p);
            let (_, costs) =
                machine.measure(|| ca_eigen::band_to_band(&machine, &grid, &bm, 2, 1));
            costs
        }
        Stage::CaSbr => {
            let dense = gen::random_banded(&mut rng, pt.n, SBR_BAND);
            let bm = BandedSym::from_dense(&dense, SBR_BAND, SBR_BAND);
            let grid = Grid::all(pt.p);
            let (_, costs) = machine.measure(|| ca_sbr(&machine, &grid, &bm));
            costs
        }
        Stage::Solver => {
            let params = EigenParams::new_unchecked(pt.p, pt.c);
            let spectrum = gen::linspace_spectrum(pt.n, -4.0, 4.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let ((ev, _stages), costs) =
                machine.measure(|| symm_eigen_25d(&machine, &params, &a));
            // The sweep is also a correctness probe: a run that meters
            // beautifully but diverges numerically must not pass.
            let dist = ca_dla::tridiag::spectrum_distance(&ev, &spectrum);
            assert!(
                dist < 1e-6 * pt.n as f64,
                "solver diverged at n={} p={} c={}: spectrum distance {dist:.3e}",
                pt.n,
                pt.p,
                pt.c
            );
            costs
        }
    };
    span.set_costs(
        costs.flops,
        costs.horizontal_words,
        costs.vertical_words,
        costs.supersteps,
    );
    costs
}

/// The closed-form model prediction ([`ca_eigen::model`]) for `stage`
/// at `pt`, with the *same* stage shapes as [`measure`]. Fitting these
/// over a sweep gives the finite-size exponent the paper's own formula
/// implies on that window — reported as a diagnostic next to the
/// asymptotic exponent.
pub fn model_costs(stage: Stage, pt: Point) -> ModelQuad {
    // The 2.5D grid parameterization only applies to the stages that
    // run on a q×q×c grid; the 1D-group stages take `p` directly.
    let m = match stage {
        Stage::StreamingMm => {
            let params = EigenParams::new_unchecked(pt.p, pt.c);
            model::mm_streaming(pt.n, pt.n, STREAM_K, params.q, params.c, 1)
        }
        Stage::RectQr => model::qr_rectangular(QR_ASPECT * pt.n, pt.n, pt.p, 0.5),
        Stage::FullToBand => {
            let params = EigenParams::new_unchecked(pt.p, pt.c);
            model::full_to_band(pt.n, f2b_bandwidth(pt.n), &params)
        }
        Stage::BandToBand => model::band_to_band(pt.n, b2b_bandwidth(pt.n), 2, pt.p, 0.5),
        Stage::CaSbr => model::ca_sbr_halving(pt.n, SBR_BAND, pt.p),
        Stage::Solver => {
            let params = EigenParams::new_unchecked(pt.p, pt.c);
            model::eigensolver(pt.n, &params)
        }
    };
    ModelQuad {
        flops: m.flops,
        horizontal_words: m.horizontal_words,
        vertical_words: m.vertical_words,
        supersteps: m.supersteps,
    }
}

/// The four fitted quantities of a model prediction, as `f64`.
#[derive(Debug, Clone, Copy)]
pub struct ModelQuad {
    /// Predicted `F`.
    pub flops: f64,
    /// Predicted `W`.
    pub horizontal_words: f64,
    /// Predicted `Q`.
    pub vertical_words: f64,
    /// Predicted `S`.
    pub supersteps: f64,
}

/// The metered quantity a claim fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    /// Computation (per-superstep max, summed) — `F`.
    F,
    /// Total flop *volume* across processors. The lemmas state `F` per
    /// processor assuming balance; per-superstep-max metering folds
    /// load imbalance (asserted separately by the tier-1 balance test)
    /// into the exponent, so composite stages fit the volume instead.
    /// Only meaningful in fixed-`p` sweeps.
    Fvol,
    /// Horizontal (inter-processor) words — `W`.
    W,
    /// Vertical (memory↔cache) words — `Q`.
    Q,
    /// Supersteps — `S`.
    S,
}

impl Quantity {
    /// Stable identifier used in claim ids.
    pub fn name(&self) -> &'static str {
        match self {
            Quantity::F => "F",
            Quantity::Fvol => "Fvol",
            Quantity::W => "W",
            Quantity::Q => "Q",
            Quantity::S => "S",
        }
    }

    /// Extract this quantity from a metered [`Costs`].
    pub fn of(&self, c: &Costs) -> f64 {
        match self {
            Quantity::F => c.flops as f64,
            Quantity::Fvol => c.total_flops as f64,
            Quantity::W => c.horizontal_words as f64,
            Quantity::Q => c.vertical_words as f64,
            Quantity::S => c.supersteps as f64,
        }
    }

    /// Extract this quantity from a model prediction. `Fvol` maps to
    /// the model's per-processor `F` — identical exponent in any
    /// fixed-`p` sweep, which is the only place `Fvol` is claimed.
    pub fn of_model(&self, m: &ModelQuad) -> f64 {
        match self {
            Quantity::F | Quantity::Fvol => m.flops,
            Quantity::W => m.horizontal_words,
            Quantity::Q => m.vertical_words,
            Quantity::S => m.supersteps,
        }
    }
}

/// Replication gain: measure `W` for `stage` at `(n, p, c = 1)` and
/// `(n, p, c = c_hi)` on the same seeded input and return
/// `(w_base, w_replicated, gain)`. The paper's headline is
/// `gain → √c_hi` (Lemma III.3 through Theorem IV.4).
pub fn replication_gain(stage: Stage, n: usize, p: usize, c_hi: usize) -> (f64, f64, f64) {
    let w1 = Quantity::W.of(&measure(stage, Point::new(n, p, 1)));
    let wc = Quantity::W.of(&measure(stage, Point::new(n, p, c_hi)));
    (w1, wc, w1 / wc)
}
