//! The claims table: every scaling law the harness asserts, with the
//! paper reference, the asymptotic exponent, and a *documented*
//! tolerance.
//!
//! Tolerances are calibrated, not wished for. The fitted exponent of a
//! finite sweep differs from the asymptotic one because the lemmas'
//! bounds carry lower-order terms (latency `log p` factors, per-stage
//! setup, the `mn/p` additive term of Theorem III.6) that do not vanish
//! on an `n ≤ 192`, `p ≤ 64` window. Each claim's `note` records which
//! term dominates the deviation; the tolerance is set to roughly twice
//! the deviation observed at calibration time, so a *regression* (an
//! accounting bug that changes the scaling class, e.g. `W` going from
//! `n²/pᵟ` to `n²/√p`-less) trips the assertion while normal finite-size
//! wobble does not. The model-implied window exponent (same fit applied
//! to [`ca_eigen::model`] closed forms over the same points) is emitted
//! alongside as a diagnostic baseline.
//!
//! [`ratio_claims`] hold the rest: a quantity at one run divided by the
//! same quantity at another run (or at the closed-form model) must land
//! in a band — the `√c` gains, Table I's baseline comparisons, the
//! ablations. A ratio band is roughly twice the observed deviation
//! from the paper's value where the paper gives one, and the measured
//! value ×/÷ 1.25 where it gives only a direction — never wider than
//! the loosest gain row's `[1.05, 2.5]`.

use crate::sweep::{Point, Quantity, Stage};

/// One asserted power-law claim: the fitted exponent of `quantity` in
/// `variable` over `points` must land within `tol` of `paper`.
#[derive(Debug, Clone)]
pub struct ExponentClaim {
    /// Stable id, `<stage>.<quantity>.<variable>`.
    pub id: &'static str,
    /// Stage under test.
    pub stage: Stage,
    /// Metered quantity being fitted.
    pub quantity: Quantity,
    /// The swept variable: `"n"`, `"p"`, `"c"` or `"b"` (the point's
    /// second shape [`Point::w`]).
    pub variable: &'static str,
    /// The paper's asymptotic exponent.
    pub paper: f64,
    /// Documented tolerance on `|fitted − paper|`.
    pub tol: f64,
    /// Paper reference (lemma/theorem) for the exponent.
    pub reference: &'static str,
    /// Why the tolerance is what it is (which lower-order term bends
    /// the finite-size fit, and in which direction).
    pub note: &'static str,
    /// Full sweep grid.
    pub points: Vec<Point>,
    /// Reduced sweep used by `--quick` and the CI tier-2 job; empty for
    /// a claim that runs in the full tier only.
    pub quick_points: Vec<Point>,
}

impl ExponentClaim {
    /// Value of the swept variable at `pt` (the fit's x-axis).
    pub fn x_of(&self, pt: &Point) -> f64 {
        match self.variable {
            "n" => pt.n as f64,
            "p" => pt.p as f64,
            "c" => pt.c as f64,
            "b" => pt.w as f64,
            other => unreachable!("unknown sweep variable {other}"),
        }
    }
}

/// One side of a ratio claim: `stage` run at `point`, or the
/// closed-form model of that stage at that point.
#[derive(Debug, Clone, Copy)]
pub struct Operand {
    /// Stage under test.
    pub stage: Stage,
    /// Its grid point.
    pub point: Point,
    /// Take [`crate::sweep::model_costs`] instead of a metered run.
    pub model: bool,
}

/// A metered run of `stage` at `point`.
pub fn measured(stage: Stage, point: Point) -> Operand {
    Operand {
        stage,
        point,
        model: false,
    }
}

/// The closed-form model of `stage` at `point`.
pub fn model(stage: Stage, point: Point) -> Operand {
    Operand {
        stage,
        point,
        model: true,
    }
}

/// A ratio claim: `quantity(num) / quantity(den)` must land inside
/// `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct RatioClaim {
    /// Stable id, `<stage>.<quantity>.<what is compared>`.
    pub id: &'static str,
    /// Metered quantity of both sides.
    pub quantity: Quantity,
    /// Numerator.
    pub num: Operand,
    /// Denominator.
    pub den: Operand,
    /// The paper's predicted ratio, where it states one (`√c` for the
    /// replication gains); `None` where it gives a direction only.
    pub paper: Option<f64>,
    /// Documented lower bound on the measured ratio.
    pub lo: f64,
    /// Documented upper bound on the measured ratio.
    pub hi: f64,
    /// Paper reference for the comparison.
    pub reference: &'static str,
    /// Why the band is what it is.
    pub note: &'static str,
    /// Whether the row also runs in the `--quick` tier.
    pub quick: bool,
}

fn n_sweep(p: usize, c: usize, ns: &[usize]) -> Vec<Point> {
    ns.iter().map(|&n| Point::new(n, p, c)).collect()
}

fn p_sweep(n: usize, c: usize, ps: &[usize]) -> Vec<Point> {
    ps.iter().map(|&p| Point::new(n, p, c)).collect()
}

/// Replication sweep at a fixed `q × q` layer grid: `p = q²c`.
fn c_sweep(n: usize, q: usize, cs: &[usize]) -> Vec<Point> {
    cs.iter().map(|&c| Point::new(n, q * q * c, c)).collect()
}

fn b_sweep(n: usize, p: usize, bs: &[usize]) -> Vec<Point> {
    bs.iter().map(|&b| Point::with_w(n, p, 1, b)).collect()
}

/// The asserted exponent claims. Covers the six pipeline stages and
/// Table I's baselines; the acceptance-critical entries are
/// `solver.W.p` (the headline `W = O(n²/pᵟ)` in `p`) and the
/// [`ratio_claims`] `√c` rows.
pub fn exponent_claims() -> Vec<ExponentClaim> {
    let ns: &[usize] = &[64, 96, 128, 192];
    let ns_quick: &[usize] = &[64, 128];
    // p/c must leave a square per-layer grid: 4, 16, 36, 64 at c = 1.
    let ps: &[usize] = &[4, 16, 36, 64];
    let ps_quick: &[usize] = &[16, 64];
    vec![
        // ——— Streaming-MM (Algorithm III.1, Lemma III.3) ———
        ExponentClaim {
            id: "streaming-mm.W.n",
            stage: Stage::StreamingMm,
            quantity: Quantity::W,
            variable: "n",
            paper: 1.0,
            tol: 0.25,
            reference: "Lemma III.3: W = O((mk + nk)/p^δ), k fixed",
            note: "k is held fixed, so W is linear in n; the broadcast \
                   of B and reduce-scatter of C add O(k·q) per-step terms \
                   that fade as n grows.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "streaming-mm.F.n",
            stage: Stage::StreamingMm,
            quantity: Quantity::F,
            variable: "n",
            paper: 2.0,
            tol: 0.15,
            reference: "Lemma III.3: F = O(mnk/p), k fixed",
            note: "Pure GEMM flops; the per-superstep-max metering adds \
                   only block-roundoff wobble.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "streaming-mm.W.p",
            stage: Stage::StreamingMm,
            quantity: Quantity::W,
            variable: "p",
            paper: -0.5,
            tol: 0.2,
            reference: "Lemma III.3: W = O(n·k/p^δ), δ = 1/2 at c = 1",
            note: "At c = 1, p^δ = √p exactly; the measured −0.42 \
                   deviation comes from ceil-divided block sizes at \
                   p = 64 on n = 128.",
            points: p_sweep(128, 1, ps),
            quick_points: p_sweep(128, 1, ps_quick),
        },
        // ——— Rectangular QR (Theorem III.6) ———
        ExponentClaim {
            id: "rect-qr.F.n",
            stage: Stage::RectQr,
            quantity: Quantity::F,
            variable: "n",
            paper: 3.0,
            tol: 0.3,
            reference: "Theorem III.6: F = O(mn²/p), m = 4n",
            note: "Panel aspect is fixed (m = 4n), so flops are cubic in \
                   the panel width; the TSQR tree adds O(n³ log p) \
                   butterfly terms with small constants.",
            points: n_sweep(4, 1, &[32, 48, 64, 96]),
            quick_points: n_sweep(4, 1, &[32, 64]),
        },
        ExponentClaim {
            id: "rect-qr.W.n",
            stage: Stage::RectQr,
            quantity: Quantity::W,
            variable: "n",
            paper: 2.0,
            tol: 0.3,
            reference: "Theorem III.6: W = O(m^δ n^{2−δ}/p^δ + mn/p), m = 4n",
            note: "Both terms are Θ(n²) once m ∝ n; the log p tree \
                   factor is n-independent and drops out of the fit.",
            points: n_sweep(4, 1, &[32, 48, 64, 96]),
            quick_points: n_sweep(4, 1, &[32, 64]),
        },
        // ——— Full-to-band (Algorithm IV.1, Lemma IV.1) ———
        ExponentClaim {
            id: "full-to-band.W.n",
            stage: Stage::FullToBand,
            quantity: Quantity::W,
            variable: "n",
            paper: 2.0,
            tol: 0.35,
            reference: "Lemma IV.1: W = O(n²/p^δ)",
            note: "b = n/8 so the panel count is constant across the \
                   sweep; panel QR and reconstruction words carry \
                   sub-quadratic terms that depress the slope slightly.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "full-to-band.Fvol.n",
            stage: Stage::FullToBand,
            quantity: Quantity::Fvol,
            variable: "n",
            paper: 3.0,
            tol: 0.35,
            reference: "Lemma IV.1: F = O(n³/p)",
            note: "Volume-based (see Quantity::Fvol): the panel QR runs \
                   on a processor subset, so per-superstep-max F folds \
                   stage imbalance into the exponent; the tier-1 \
                   balance test bounds that imbalance separately.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "full-to-band.W.p",
            stage: Stage::FullToBand,
            quantity: Quantity::W,
            variable: "p",
            paper: -0.5,
            tol: 0.3,
            reference: "Lemma IV.1: W = O(n²/p^δ), δ = 1/2 at c = 1",
            note: "Acceptance-critical claim, swept at fixed b = 16 \
                   (Algorithm IV.3's b(p) schedule would vary two knobs \
                   at once). Measured ≈ −0.28 at calibration: panel-QR \
                   tree words (Θ(b² log p) per panel) do not fall with \
                   p and flatten the slope on this window.",
            points: p_sweep(128, 1, ps),
            quick_points: p_sweep(128, 1, ps_quick),
        },
        // ——— Band-to-band (Algorithm IV.2, Lemma IV.3) ———
        ExponentClaim {
            id: "band-to-band.W.n",
            stage: Stage::BandToBand,
            quantity: Quantity::W,
            variable: "n",
            paper: 2.0,
            tol: 0.35,
            reference: "Lemma IV.3: W = O(n^{1+δ}b^{1−δ}/p^δ), b = n/8",
            note: "With b ∝ n the bound is Θ(n²); the per-chase QR \
                   panels add an O(n·b) floor visible at n = 64.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "band-to-band.F.n",
            stage: Stage::BandToBand,
            quantity: Quantity::F,
            variable: "n",
            paper: 3.0,
            tol: 0.35,
            reference: "Lemma IV.3: F = O(n²b/p), b = n/8",
            note: "Bulge-chase updates are Θ(n²b); with b ∝ n the sweep \
                   sees the cubic.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        // ——— CA-SBR (Lemma IV.2) ———
        ExponentClaim {
            id: "ca-sbr.W.n",
            stage: Stage::CaSbr,
            quantity: Quantity::W,
            variable: "n",
            paper: 1.0,
            tol: 0.3,
            reference: "Lemma IV.2: W = O(nb/p̂), b fixed",
            note: "b is held fixed at 8, so the per-processor word share \
                   is linear in n. The sweep starts at n = 96: below \
                   that the bulge windows (≈ 2b columns) are comparable \
                   to the per-processor column ranges and boundary \
                   traffic is superlinear (measured ratios converge to \
                   linear from above as n grows).",
            points: n_sweep(4, 1, &[96, 128, 192, 256]),
            quick_points: n_sweep(4, 1, &[128, 256]),
        },
        ExponentClaim {
            id: "ca-sbr.F.n",
            stage: Stage::CaSbr,
            quantity: Quantity::F,
            variable: "n",
            paper: 2.0,
            tol: 0.3,
            reference: "Lemma IV.2: F = O(n²b/p̂), b fixed",
            note: "Each of the O(n/b) sweeps touches O(nb²/p̂) entries.",
            points: n_sweep(4, 1, &[96, 128, 192, 256]),
            quick_points: n_sweep(4, 1, &[128, 256]),
        },
        // ——— End-to-end solver (Algorithm IV.3, Theorem IV.4) ———
        ExponentClaim {
            id: "solver.W.n",
            stage: Stage::Solver,
            quantity: Quantity::W,
            variable: "n",
            paper: 2.0,
            tol: 0.35,
            reference: "Theorem IV.4: W = O(n²/p^δ)",
            note: "Composition of the stage claims; the sequential \
                   eigensolve gather adds an O(n·b) term.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "solver.Fvol.n",
            stage: Stage::Solver,
            quantity: Quantity::Fvol,
            variable: "n",
            paper: 3.0,
            tol: 0.35,
            reference: "Theorem IV.4: F = O(n³/p)",
            note: "Volume-based (see Quantity::Fvol): the sequential \
                   banded eigensolve runs on one processor and would \
                   dominate per-superstep-max F at small n.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        ExponentClaim {
            id: "solver.W.p",
            stage: Stage::Solver,
            quantity: Quantity::W,
            variable: "p",
            paper: -0.5,
            tol: 0.4,
            reference: "Theorem IV.4 / Lemma IV.1: W = O(n²/p^δ), δ = 1/2 at c = 1",
            note: "Swept at n = 256, p ≥ 16: the composite couples \
                   b(p) = n/max(√p, log p) to p and runs band-to-band \
                   on shrinking processor prefixes whose words do not \
                   fall with the global p; measured ≈ −0.22 at \
                   calibration. Below p = 16 the 1D stages dominate and \
                   the slope collapses entirely — the claim documents \
                   where the asymptotic regime starts.",
            points: p_sweep(256, 1, &[16, 36, 64]),
            quick_points: p_sweep(256, 1, &[16, 64]),
        },
        ExponentClaim {
            id: "solver.S.n",
            stage: Stage::Solver,
            quantity: Quantity::S,
            variable: "n",
            paper: 0.0,
            tol: 0.8,
            reference: "Theorem IV.4: S = O(p^δ log²p), n-independent",
            note: "The headline is what S is *not*: linear in n (the \
                   ScaLAPACK baseline's Θ(n) column collectives). The \
                   band-to-band chase count grows mildly with n on \
                   finite windows; the tolerance excludes slope ≥ 0.8, \
                   i.e. anything approaching the direct method's 1.0.",
            points: n_sweep(16, 1, ns),
            quick_points: n_sweep(16, 1, ns_quick),
        },
        // ——— Streaming-MM in c (Lemma III.3 at fixed q) ———
        ExponentClaim {
            id: "streaming-mm.W.c",
            stage: Stage::StreamingMm,
            quantity: Quantity::W,
            variable: "c",
            paper: -1.0,
            tol: 0.15,
            reference: "Lemma III.3: W = O((mk + nk)/(q·c)) at fixed q = 4, p = q²c",
            note: "Each added layer takes its share of the streamed \
                   blocks, so W falls as 1/c once A is replicated; \
                   measured −1.00 at calibration. The tolerance is the \
                   table's tightest, not twice a zero deviation.",
            points: c_sweep(256, 4, &[1, 2, 4, 8]),
            quick_points: c_sweep(256, 4, &[1, 4]),
        },
        // ——— Band-to-band in b (Lemma IV.3) ———
        ExponentClaim {
            id: "band-to-band.F.b",
            stage: Stage::BandToBand,
            quantity: Quantity::F,
            variable: "b",
            paper: 1.0,
            tol: 0.3,
            reference: "Lemma IV.3: F = O(n²b/p), one halving b → b/2 at fixed n",
            note: "Measured +0.85 at calibration: the slope bends \
                   from +1.28 (b = 8 → 16) to +0.49 (b = 32 → 64) as \
                   b nears n/4 and a halving runs only a few chases per \
                   sweep. The quick pair {8, 64} spans the same window. Lemma \
                   IV.3's S in b (b^−1/2) is not claimed: the ledger \
                   reads b^−1.30, a shortfall named in ROADMAP.",
            points: b_sweep(256, 16, &[8, 16, 32, 64]),
            quick_points: b_sweep(256, 16, &[8, 64]),
        },
        // ——— Table I baselines ———
        ExponentClaim {
            id: "scalapack.Q.p",
            stage: Stage::Scalapack,
            quantity: Quantity::Q,
            variable: "p",
            paper: -1.0,
            tol: 0.15,
            reference: "Table I (ScaLAPACK): Q = O(n³/p)",
            note: "The direct method streams the trailing matrix \
                   from memory once per column: measured −1.00 exactly. \
                   The tolerance is the table's tightest.",
            points: p_sweep(512, 1, &[16, 64, 256]),
            quick_points: vec![],
        },
        ExponentClaim {
            id: "scalapack.S.p",
            stage: Stage::Scalapack,
            quantity: Quantity::S,
            variable: "p",
            paper: 0.0,
            tol: 0.15,
            reference: "Table I (ScaLAPACK): S = O(n log p)",
            note: "One collective per column whatever p is: measured \
                   +0.00 (the ledger counts a collective as one \
                   superstep, so the model's log p does not show).",
            points: p_sweep(512, 1, &[16, 64, 256]),
            quick_points: vec![],
        },
        ExponentClaim {
            id: "scalapack.Q.n",
            stage: Stage::Scalapack,
            quantity: Quantity::Q,
            variable: "n",
            paper: 3.0,
            tol: 0.15,
            reference: "Table I (ScaLAPACK): Q = O(n³/p)",
            note: "Measured +3.02 (quick pair +3.05). On the quick \
                   pair, n = 32 → 64 at p = 16, the tolerance admits \
                   Q(64)/Q(32) in [7.2, 8.9].",
            points: n_sweep(16, 1, &[32, 64, 128, 256]),
            quick_points: n_sweep(16, 1, &[32, 64]),
        },
        ExponentClaim {
            id: "scalapack.S.n",
            stage: Stage::Scalapack,
            quantity: Quantity::S,
            variable: "n",
            paper: 1.0,
            tol: 0.15,
            reference: "Table I (ScaLAPACK): S = O(n log p), one collective per column",
            note: "Measured +1.02 (quick pair +1.04). On the quick \
                   pair, n = 32 → 64 at p = 16, the tolerance admits \
                   S(64)/S(32) in [1.80, 2.22].",
            points: n_sweep(16, 1, &[32, 64, 128, 256]),
            quick_points: n_sweep(16, 1, &[32, 64]),
        },
        ExponentClaim {
            id: "elpa.W.p",
            stage: Stage::Elpa,
            quantity: Quantity::W,
            variable: "p",
            paper: -0.5,
            tol: 0.3,
            reference: "Table I (ELPA): W = O(n²/√p)",
            note: "Measured −0.36 at n = 512 (−0.37 on the quick pair \
                   at n = 128): at p = 256 the local problem is n/p = 2 \
                   rows, and terms that do not fall with p flatten the \
                   slope, as for solver.W.p.",
            points: p_sweep(512, 1, &[16, 64, 256]),
            quick_points: p_sweep(128, 1, &[16, 64]),
        },
        ExponentClaim {
            id: "ca-sbr-solver.W.p",
            stage: Stage::CaSbrSolver,
            quantity: Quantity::W,
            variable: "p",
            paper: -0.5,
            tol: 0.4,
            reference: "Table I (CA-SBR): W = O(n²/√p)",
            note: "Measured −0.32 at n = 512 (−0.29 on the quick \
                   pair at n = 128): the CA-SBR halvings run on \
                   shrinking prefixes of the machine whose words do not \
                   fall with the global p, as for solver.W.p.",
            points: p_sweep(512, 1, &[16, 64, 256]),
            quick_points: p_sweep(128, 1, &[16, 64]),
        },
    ]
}

/// The asserted ratio claims: the `√c` replication gains, Table I's
/// baseline comparison, the lemma shapes measured against their closed
/// forms, and the §V ablations.
pub fn ratio_claims() -> Vec<RatioClaim> {
    let gain = |id, stage, n, p, lo, hi, reference, note| RatioClaim {
        id,
        quantity: Quantity::W,
        num: measured(stage, Point::new(n, p, 1)),
        den: measured(stage, Point::new(n, p, 4)),
        paper: Some(2.0),
        lo,
        hi,
        reference,
        note,
        quick: true,
    };
    vec![
        // ——— √c replication gains, W(c = 1) / W(c = 4) ———
        gain(
            "streaming-mm.gain.c4",
            Stage::StreamingMm,
            128,
            64,
            1.5,
            2.5,
            "Lemma III.3: W ∝ 1/p^δ = 1/(q·c) → ×√c at fixed p",
            "The streaming kernel realizes the √c saving almost \
             exactly; the band allows block-size roundoff.",
        ),
        gain(
            "full-to-band.gain.c4",
            Stage::FullToBand,
            96,
            64,
            1.15,
            2.5,
            "Lemma IV.1: W = O(n²/p^δ) → ×√c at fixed p",
            "Panel QR and reconstruction words are c-independent \
             and dilute the gain at n = 96 (the same band the \
             tier-1 spot check pins: > 1.15, toward 2).",
        ),
        gain(
            "solver.gain.c4",
            Stage::Solver,
            192,
            64,
            1.05,
            2.5,
            "Theorem IV.4: end-to-end W gains √c where \
             full-to-band dominates",
            "Band-to-band and the sequential stage are \
             c-independent, so the end-to-end gain is the \
             full-to-band gain diluted by their word share; must \
             stay > 1 (replication never loses) and below √c·1.25.",
        ),
        RatioClaim {
            id: "full-to-band.gain.c4.b8",
            quantity: Quantity::W,
            num: measured(Stage::FullToBand, Point::with_w(96, 64, 1, 8)),
            den: measured(Stage::FullToBand, Point::with_w(96, 64, 4, 8)),
            paper: Some(2.0),
            lo: 1.15,
            hi: 2.5,
            reference: "Lemma IV.1: W = O(n²/p^δ) → ×√c at fixed p",
            note: "full-to-band.gain.c4 at b = 8 instead of n/8, \
                   held to the same band; measured 1.26.",
            quick: true,
        },
        RatioClaim {
            id: "solver.gain.c4.n256",
            quantity: Quantity::W,
            num: measured(Stage::Solver, Point::new(256, 64, 1)),
            den: measured(Stage::Solver, Point::new(256, 64, 4)),
            paper: Some(2.0),
            lo: 1.05,
            hi: 2.5,
            reference: "Theorem IV.4: end-to-end W gains √c where full-to-band dominates",
            note: "Measured 1.13: the end-to-end gain at n = 256, \
                   diluted as in solver.gain.c4 and held to its band.",
            quick: true,
        },
        // ——— Replication outside its regime, and its price (§I) ———
        RatioClaim {
            id: "solver.W.c16-over-c4",
            quantity: Quantity::W,
            num: measured(Stage::Solver, Point::new(256, 64, 16)),
            den: measured(Stage::Solver, Point::new(256, 64, 4)),
            paper: None,
            lo: 1.1,
            hi: 1.73,
            reference: "§I: the √c saving holds for c ≤ p^{1/3}",
            note: "At p = 64, c = 16 is past p^{1/3} = 4: the \
                   replication and the 2 × 2 layer grid cost more than \
                   the streaming saves, so W rises again. Measured 1.38; \
                   the band is that ×/÷ 1.25.",
            quick: false,
        },
        RatioClaim {
            id: "solver.M.c4-over-c1",
            quantity: Quantity::M,
            num: measured(Stage::Solver, Point::new(256, 64, 4)),
            den: measured(Stage::Solver, Point::new(256, 64, 1)),
            paper: Some(4.0),
            lo: 1.0,
            hi: 1.34,
            reference: "§I: M = Θ(c·n²/p), c copies of the matrix",
            note: "Measured 1.07: the solver's peak is its \
                   full→band stage's, where at n = 256 the panel and \
                   aggregate buffers outweigh the replicated block \
                   (n²c/p words), so c = 4 copies barely move it. Band: \
                   measured × 1.25 above, no saving below.",
            quick: false,
        },
        RatioClaim {
            id: "full-to-band.M.c4-over-c1",
            quantity: Quantity::M,
            num: measured(Stage::FullToBand, Point::with_w(128, 64, 4, 8)),
            den: measured(Stage::FullToBand, Point::with_w(128, 64, 1, 8)),
            paper: Some(4.0),
            lo: 1.53,
            hi: 2.4,
            reference: "§I: M = Θ(c·n²/p), c copies of the matrix",
            note: "The replicated A block itself scales ×c; the \
                   panel and aggregate buffers do not. Measured 1.92 \
                   at b = 8; the band is that ×/÷ 1.25.",
            quick: true,
        },
        // ——— Table I: the direct method against the 2.5D solver ———
        RatioClaim {
            id: "scalapack.Q.over-solver",
            quantity: Quantity::Q,
            num: measured(Stage::Scalapack, Point::new(512, 16, 1)),
            den: measured(Stage::Solver, Point::new(512, 16, 1)),
            paper: None,
            lo: 2.27,
            hi: 3.54,
            reference: "Table I: Q = n³/p (ScaLAPACK) against n²·log p/p^δ (Theorem IV.4)",
            note: "Measured 2.83 at n = 512, p = 16. Table I's unit \
                   constants would give n·p^δ/(p log p) = 32; at this \
                   n the 2.5D solver's two CA-SBR halvings carry more \
                   than half of its Q. The band is measured ×/÷ 1.25.",
            quick: false,
        },
        RatioClaim {
            id: "solver.W.p16-over-p64",
            quantity: Quantity::W,
            num: measured(Stage::Solver, Point::new(128, 16, 1)),
            den: measured(Stage::Solver, Point::new(128, 64, 1)),
            paper: Some(2.0),
            lo: 1.05,
            hi: 2.5,
            reference: "Theorem IV.4: W = O(n²/p^δ), δ = 1/2 at c = 1",
            note: "Measured 1.42: W falls with p at n = 128. The \
                   band is the gain rows': above 1, below √4·1.25.",
            quick: true,
        },
        RatioClaim {
            id: "solver.S.n128-over-n64",
            quantity: Quantity::S,
            num: measured(Stage::Solver, Point::new(128, 16, 1)),
            den: measured(Stage::Solver, Point::new(64, 16, 1)),
            paper: Some(1.0),
            lo: 0.8,
            hi: 1.7,
            reference: "Theorem IV.4: S = O(p^δ log²p), n-independent",
            note: "Measured 1.00: doubling n adds no superstep at \
                   p = 16. The ceiling 1.7 stays well below 2, the \
                   direct method's doubling; the floor is 1/1.25.",
            quick: true,
        },
        // ——— Lemma shapes against their closed forms ———
        RatioClaim {
            id: "carma.W.over-lemma.1d",
            quantity: Quantity::W,
            num: measured(Stage::Carma, Point::with_w(16384, 16, 1, 32)),
            den: model(Stage::Carma, Point::with_w(16384, 16, 1, 32)),
            paper: None,
            lo: 0.71,
            hi: 1.11,
            reference: "Lemma III.2: W = O((mn + nk + mk)/p + (mnk/p)^{2/3})",
            note: "16384 × 32 times 32 × 32 on p = 16 is CARMA's 1D \
                   case (p < d₃/d₂): W tracks the (mk + kn + mn)/p term. \
                   Measured 0.89; the band is that ×/÷ 1.25.",
            quick: true,
        },
        RatioClaim {
            id: "carma.W.over-lemma.3d",
            quantity: Quantity::W,
            num: measured(Stage::Carma, Point::with_w(256, 16, 1, 256)),
            den: model(Stage::Carma, Point::with_w(256, 16, 1, 256)),
            paper: None,
            lo: 1.88,
            hi: 2.94,
            reference: "Lemma III.2: W = O((mn + nk + mk)/p + (mnk/p)^{2/3})",
            note: "256³ on p = 16 is the 3D case: W tracks \
                   (mnk/p)^{2/3} within a constant. Measured 2.36; the \
                   band is that ×/÷ 1.25.",
            quick: true,
        },
        RatioClaim {
            id: "rect-qr.W.over-theorem.tall",
            quantity: Quantity::W,
            num: measured(Stage::RectQr, Point::with_w(32768, 16, 1, 8)),
            den: model(Stage::RectQr, Point::with_w(32768, 16, 1, 8)),
            paper: None,
            lo: 0.043,
            hi: 0.068,
            reference: "Theorem III.6: W = O(m^δ n^{2−δ}/p^δ + mn/p)",
            note: "At 32768 × 8 the panel QR is TSQR: W is the \
                   tree's O(n² log p), far below the mn/p term that \
                   dominates the bound. Measured 0.054; the band is that \
                   ×/÷ 1.25.",
            quick: true,
        },
        RatioClaim {
            id: "rect-qr-tree.W.over-column",
            quantity: Quantity::W,
            num: measured(
                Stage::RectQrTree { q_max: 1 },
                Point::with_w(4096, 8, 1, 16),
            ),
            den: measured(Stage::RectQr, Point::with_w(4096, 8, 1, 16)),
            paper: None,
            lo: 5.41,
            hi: 8.45,
            reference: "Algorithm III.2 (row tree) against §III.B's column recursion",
            note: "At 4096 × 16, p = 8 with q_max = 1 the row tree \
                   rebuilds the explicit Q through Lemma III.2 products \
                   that the column recursion's Householder form does \
                   not need. Measured 6.76; the band is that ×/÷ 1.25. \
                   The two R factors agree (tests/building_blocks.rs).",
            quick: true,
        },
        // ——— Ablations (§V) ———
        RatioClaim {
            id: "full-to-band.Fvol.c4-over-c1",
            quantity: Quantity::Fvol,
            num: measured(Stage::FullToBand, Point::new(128, 16, 4)),
            den: measured(Stage::FullToBand, Point::new(128, 16, 1)),
            paper: Some(1.0),
            lo: 1.0,
            hi: 1.28,
            reference: "Algorithm IV.1: the aggregated update's work is c-independent",
            note: "Measured 1.14 at (128, 16, b = 16): the \
                   aggregated update is applied once, not once per \
                   copy, so replication adds only the per-layer \
                   partial products' share. Band: 1 + 2 × 0.14 above, no \
                   saving below.",
            quick: true,
        },
        RatioClaim {
            id: "band-ladder.W.k2-over-k8",
            quantity: Quantity::W,
            num: measured(
                Stage::BandLadder { k: 2, h: 4 },
                Point::with_w(256, 16, 1, 32),
            ),
            den: measured(
                Stage::BandLadder { k: 8, h: 4 },
                Point::with_w(256, 16, 1, 32),
            ),
            paper: None,
            lo: 2.47,
            hi: 3.86,
            reference: "§V: k = p^{2−3δ} per invocation cuts the stage count",
            note: "b = 32 → 4 at n = 256, p = 16: three k = 2 \
                   halvings against one k = 8 shot on the same input; \
                   the ladder moves 3.09× the words. The band is that \
                   ×/÷ 1.25.",
            quick: true,
        },
        RatioClaim {
            id: "band-ladder.S.k2-over-k8",
            quantity: Quantity::S,
            num: measured(
                Stage::BandLadder { k: 2, h: 4 },
                Point::with_w(256, 16, 1, 32),
            ),
            den: measured(
                Stage::BandLadder { k: 8, h: 4 },
                Point::with_w(256, 16, 1, 32),
            ),
            paper: None,
            lo: 1.82,
            hi: 2.84,
            reference: "§V: a single k = p^{2−3δ} invocation \"results in a greater \
                        synchronization cost\"",
            note: "Measured 2.27: at this k the ladder also pays \
                   more supersteps; §V's remark concerns large k. The \
                   band is measured ×/÷ 1.25.",
            quick: true,
        },
        // ——— Eigenvectors (§IV.C) ———
        RatioClaim {
            id: "back-transformation.Fvol.p64-over-p16",
            quantity: Quantity::Fvol,
            num: measured(Stage::BackTransform, Point::new(128, 64, 1)),
            den: measured(Stage::BackTransform, Point::new(128, 16, 1)),
            paper: Some(1.0),
            lo: 0.96,
            hi: 1.04,
            reference: "§IV.C: back-transformation costs O(n³) per reduction stage",
            note: "Measured 1.02 at n = 128: each stage's reflectors \
                   cost the same volume whatever p is. Band: \
                   1 ± 2 × 0.02.",
            quick: true,
        },
        RatioClaim {
            id: "back-transformation.Fvol.p4-over-p16",
            quantity: Quantity::Fvol,
            num: measured(Stage::BackTransform, Point::new(128, 4, 1)),
            den: measured(Stage::BackTransform, Point::new(128, 16, 1)),
            paper: Some(1.0),
            lo: 1.0,
            hi: 1.44,
            reference: "§IV.C: back-transformation costs O(n³) per reduction stage",
            note: "Measured 1.22: at p = 4 the solve starts from \
                   b = n/2 and its two stages apply wider blocks, so \
                   the per-stage volume is constant from p = 16 up but \
                   not down to p = 4. Band: 1 + 2 × 0.22 above, no \
                   saving below.",
            quick: true,
        },
    ]
}
