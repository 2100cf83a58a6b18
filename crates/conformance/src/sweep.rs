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
use ca_eigen::baselines::{ca_sbr_eigenvalues, elpa_two_stage, scalapack::scalapack_eigenvalues};
use ca_eigen::model::{self, ModelCosts};
use ca_eigen::{ca_sbr, try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams};
use ca_pla::carma::carma;
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::rect_qr::{rect_qr, rect_qr_tree};
use ca_pla::streaming::{streaming_mm_dense, Replicated};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One pipeline stage the harness can meter in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Algorithm III.1 / Lemma III.3: replicated streaming multiply.
    StreamingMm,
    /// Theorem III.6: rectangular (panel) QR on a 1D group, the
    /// column recursion the solver runs.
    RectQr,
    /// Algorithm III.2 as written: the row-reduction tree, with
    /// `q_max` capping the processors of each base case.
    RectQrTree {
        /// Processor cap of the (nearly) square base cases.
        q_max: usize,
    },
    /// Lemma III.2: CARMA, the recursive multiply of operands that are
    /// not replicated.
    Carma,
    /// Algorithm IV.1 / Lemma IV.1: 2.5D full→band reduction.
    FullToBand,
    /// Algorithm IV.2 / Lemma IV.3: 2.5D band→band reduction.
    BandToBand,
    /// Band→band from `b` down to `h`, each invocation dividing the
    /// band-width by `k` (the §V staging choice: `k = 2` halvings or
    /// one `k = b/h` shot).
    BandLadder {
        /// Reduction factor of each invocation.
        k: usize,
        /// Target band-width.
        h: usize,
    },
    /// Lemma IV.2: one CA-SBR band halving.
    CaSbr,
    /// Algorithm IV.3 / Theorem IV.4: the end-to-end eigensolver.
    Solver,
    /// §IV.C: the vectors solve's back-transformation, per reduction
    /// stage (its costs divided by the number of stages it applies).
    BackTransform,
    /// Table I row "ScaLAPACK": direct blocked tridiagonalization on the
    /// squarest 2D grid, then the eigenvalues.
    Scalapack,
    /// Table I row "ELPA": two-stage 2D reduction (full→band at
    /// `c = 1`, then Lang's `h = 1` pipeline).
    Elpa,
    /// Table I row "CA-SBR": 2D full→band, then CA-SBR halvings to
    /// band-width `n/p`, then the sequential banded eigensolve.
    CaSbrSolver,
}

impl Stage {
    /// Stable identifier used in claim ids and CONFORMANCE.json.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::StreamingMm => "streaming-mm",
            Stage::RectQr => "rect-qr",
            Stage::RectQrTree { .. } => "rect-qr-tree",
            Stage::Carma => "carma",
            Stage::FullToBand => "full-to-band",
            Stage::BandToBand => "band-to-band",
            Stage::BandLadder { .. } => "band-ladder",
            Stage::CaSbr => "ca-sbr",
            Stage::Solver => "solver",
            Stage::BackTransform => "back-transformation",
            Stage::Scalapack => "scalapack",
            Stage::Elpa => "elpa",
            Stage::CaSbrSolver => "ca-sbr-solver",
        }
    }
}

/// A sweep grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    /// Matrix dimension (the row count of rect-QR and CARMA operands).
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Replication factor.
    pub c: usize,
    /// Second shape, `0` for the stage's default: the band-width `b`
    /// of full→band and the band stages, the column count of rect-QR
    /// (whose panel is then `n × w`), and CARMA's inner and column
    /// dimension (`n×w` times `w×w`).
    pub w: usize,
}

impl Point {
    /// A point at the stage's default second shape.
    pub fn new(n: usize, p: usize, c: usize) -> Self {
        Self { n, p, c, w: 0 }
    }

    /// A point with the second shape `w` given.
    pub fn with_w(n: usize, p: usize, c: usize, w: usize) -> Self {
        Self { n, p, c, w }
    }

    /// `w`, or `default` when the point leaves it to the stage.
    fn w_or(&self, default: usize) -> usize {
        if self.w == 0 {
            default
        } else {
            self.w
        }
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
/// shared between points, so sweeps are order-independent). The
/// variants of one operation share a seed, so a ratio between them
/// compares runs on the same input.
fn seed(stage: Stage, pt: Point) -> u64 {
    let s = match stage {
        Stage::StreamingMm => 1,
        Stage::RectQr | Stage::RectQrTree { .. } => 2,
        Stage::FullToBand => 3,
        Stage::BandToBand | Stage::BandLadder { .. } => 4,
        Stage::CaSbr => 5,
        Stage::Solver
        | Stage::BackTransform
        | Stage::Scalapack
        | Stage::Elpa
        | Stage::CaSbrSolver => 6,
        Stage::Carma => 7,
    };
    0x00c0_ffee_u64
        .wrapping_mul(31)
        .wrapping_add(s)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((pt.n as u64) << 32 | (pt.p as u64) << 8 | pt.c as u64)
        .wrapping_add((pt.w as u64) << 48)
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

/// Rows and columns of the rect-QR panel at `pt`.
fn qr_shape(pt: Point) -> (usize, usize) {
    if pt.w == 0 {
        (QR_ASPECT * pt.n, pt.n)
    } else {
        (pt.n, pt.w)
    }
}

/// The sweeps double as correctness probes: a solver that meters
/// beautifully but diverges numerically must not pass.
fn assert_spectrum(stage: Stage, pt: Point, ev: &[f64], spectrum: &[f64]) {
    let dist = ca_dla::tridiag::spectrum_distance(ev, spectrum);
    assert!(
        dist < 1e-6 * pt.n as f64,
        "{} diverged at n={} p={} c={}: spectrum distance {dist:.3e}",
        stage.name(),
        pt.n,
        pt.p,
        pt.c
    );
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
    let params = || EigenParams::try_new_unchecked(pt.p, pt.c).unwrap();
    let costs = match stage {
        Stage::StreamingMm => {
            let grid3 = params().grid3();
            let a = gen::random_symmetric(&mut rng, pt.n);
            let b = gen::random_matrix(&mut rng, pt.n, STREAM_K);
            Replicated::replicate(&machine, &grid3, pt.n, pt.n);
            let (_, costs) = machine.measure(|| {
                streaming_mm_dense(&machine, &grid3, &a, (0, 0, pt.n, pt.n), false, &b, 1)
            });
            costs
        }
        Stage::RectQr | Stage::RectQrTree { .. } => {
            let (rows, cols) = qr_shape(pt);
            let a = gen::random_matrix(&mut rng, rows, cols);
            let da = DistMatrix::from_dense(&machine, &Grid::all(pt.p), a);
            let (_, costs) = machine.measure(|| match stage {
                Stage::RectQrTree { q_max } => {
                    rect_qr_tree(&machine, &da, q_max).0.release(&machine);
                }
                _ => {
                    rect_qr(&machine, &da);
                }
            });
            costs
        }
        Stage::Carma => {
            let a = gen::random_matrix(&mut rng, pt.n, pt.w);
            let b = gen::random_matrix(&mut rng, pt.w, pt.w);
            let (_, costs) = machine.measure(|| carma(&machine, &Grid::all(pt.p), &a, &b, 1));
            costs
        }
        Stage::FullToBand => {
            let a = gen::random_symmetric(&mut rng, pt.n);
            let b = pt.w_or(f2b_bandwidth(pt.n));
            let params = params();
            let (_, costs) = machine
                .measure(|| ca_eigen::try_full_to_band(&machine, &params, &a, b, None).unwrap());
            costs
        }
        Stage::BandToBand | Stage::BandLadder { .. } => {
            let b = pt.w_or(b2b_bandwidth(pt.n));
            let (k, h) = match stage {
                Stage::BandLadder { k, h } => (k, h),
                _ => (2, b.div_ceil(2)),
            };
            let dense = gen::random_banded(&mut rng, pt.n, b);
            let mut band = BandedSym::from_dense(&dense, b, b);
            let grid = Grid::all(pt.p);
            let (_, costs) = machine.measure(|| {
                while band.bandwidth() > h {
                    let target = band.bandwidth().div_ceil(k).max(h);
                    band = ca_eigen::try_band_to_band(&machine, &grid, &band, target, 1, None)
                        .unwrap();
                }
            });
            costs
        }
        Stage::CaSbr => {
            let dense = gen::random_banded(&mut rng, pt.n, SBR_BAND);
            let bm = BandedSym::from_dense(&dense, SBR_BAND, SBR_BAND);
            let grid = Grid::all(pt.p);
            let (_, costs) = machine.measure(|| ca_sbr(&machine, &grid, bm, None));
            costs
        }
        Stage::Solver | Stage::Scalapack | Stage::Elpa | Stage::CaSbrSolver => {
            let spectrum = gen::linspace_spectrum(pt.n, -4.0, 4.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let (ev, costs) = machine.measure(|| match stage {
                Stage::Solver => try_symm_eigen_25d(&machine, &params(), &a).unwrap().0,
                Stage::Scalapack => {
                    scalapack_eigenvalues(&machine, &Grid::all(pt.p).squarest_2d(), &a)
                }
                Stage::Elpa => elpa_two_stage(&machine, pt.p, &a),
                _ => ca_sbr_eigenvalues(&machine, pt.p, &a),
            });
            assert_spectrum(stage, pt, &ev, &spectrum);
            costs
        }
        Stage::BackTransform => {
            let spectrum = gen::linspace_spectrum(pt.n, -4.0, 4.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let (ev, _, stages) = try_symm_eigen_25d_vectors(&machine, &params(), &a).unwrap();
            assert_spectrum(stage, pt, &ev, &spectrum);
            // Every record but the sequential solve and the
            // back-transformation itself is a reduction stage whose
            // reflectors are applied.
            let reductions = stages.stages.len() as u64 - 2;
            let bt = stages
                .stages
                .iter()
                .find(|s| s.name == "back-transformation")
                .expect("the vectors solve records its back-transformation")
                .costs;
            Costs {
                flops: bt.flops / reductions,
                horizontal_words: bt.horizontal_words / reductions,
                vertical_words: bt.vertical_words / reductions,
                supersteps: bt.supersteps / reductions,
                peak_memory_words: bt.peak_memory_words,
                total_volume_words: bt.total_volume_words / reductions,
                total_flops: bt.total_flops / reductions,
            }
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
/// asymptotic exponent. `None` for the stages no lemma costs on its
/// own (the ladder, the back-transformation).
pub fn model_costs(stage: Stage, pt: Point) -> Option<ModelCosts> {
    // The 2.5D grid parameterization only applies to the stages that
    // run on a q×q×c grid; the 1D-group stages take `p` directly.
    let params = || EigenParams::try_new_unchecked(pt.p, pt.c).unwrap();
    Some(match stage {
        Stage::StreamingMm => {
            let params = params();
            model::mm_streaming(pt.n, pt.n, STREAM_K, params.q, params.c, 1)
        }
        Stage::RectQr | Stage::RectQrTree { .. } => {
            let (rows, cols) = qr_shape(pt);
            model::qr_rectangular(rows, cols, pt.p, 0.5)
        }
        Stage::Carma => model::mm_recursive(pt.n, pt.w, pt.w, pt.p),
        Stage::FullToBand => model::full_to_band(pt.n, pt.w_or(f2b_bandwidth(pt.n)), &params()),
        Stage::BandToBand => model::band_to_band(pt.n, pt.w_or(b2b_bandwidth(pt.n)), 2, pt.p, 0.5),
        Stage::CaSbr => model::ca_sbr_halving(pt.n, SBR_BAND, pt.p),
        Stage::Solver => model::eigensolver(pt.n, &params()),
        // Table I gives the ELPA and CA-SBR rows the direct method's W.
        Stage::Scalapack | Stage::Elpa | Stage::CaSbrSolver => model::scalapack_direct(pt.n, pt.p),
        Stage::BandLadder { .. } | Stage::BackTransform => return None,
    })
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
    /// Peak per-processor memory in words — `M`.
    M,
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
            Quantity::M => "M",
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
            Quantity::M => c.peak_memory_words as f64,
        }
    }

    /// Extract this quantity from a model prediction. `Fvol` maps to
    /// the model's per-processor `F` — identical exponent in any
    /// fixed-`p` sweep, which is the only place `Fvol` is claimed.
    pub fn of_model(&self, m: &ModelCosts) -> f64 {
        match self {
            Quantity::F | Quantity::Fvol => m.flops,
            Quantity::W => m.horizontal_words,
            Quantity::Q => m.vertical_words,
            Quantity::S => m.supersteps,
            Quantity::M => m.memory_words,
        }
    }
}
