//! Algorithm IV.3: the complete **2.5D-Symmetric-Eigensolver**.
//!
//! Composition (with `δ` implied by the replication factor `c`):
//!
//! 1. `B ← 2.5D-Full-to-Band(A)` at `b = n / max(p^{2−3δ}, log₂ p)`;
//! 2. while `b > n/pᵟ`: `B ← 2.5D-Band-to-Band(B)` halvings on a
//!    shrinking processor prefix `Π[1 : p/k^{iζ}]`, `ζ = (1−δ)/δ` —
//!    chosen so the per-stage `β·n·b/pᵟ` term stays constant across
//!    stages; the final pass reduces straight to `n/pᵟ` (ratio `< 4`)
//!    instead of overshooting it;
//! 3. while `b > n/p`: CA-SBR halvings on `pᵟ` processors;
//! 4. gather the `n/p`-band matrix on one processor and compute its
//!    eigenvalues sequentially.
//!
//! Every stage's `F/W/Q/S` delta is recorded in [`StageCosts`], which is
//! what the Table-I harness prints.

use crate::ca_sbr::ca_sbr;
use crate::error::EigenError;
use crate::params::EigenParams;
use ca_bsp::{Costs, Machine};
use ca_dla::Matrix;
use ca_pla::coll;
use ca_pla::grid::Grid;

/// Per-stage cost record of one eigensolver run.
///
/// Each entry is a [`ca_bsp::StageRecord`] whose `name` starts with the
/// stage's kind — `"full-to-band"`, `"band-to-band"`, `"ca-sbr"`,
/// `"sequential eigensolve"` or `"back-transformation"` — followed by
/// the stage's parameters (band-widths, active processors). Consumers
/// that need per-kind totals (the conformance harness, the Table-I
/// printer) aggregate by prefix with [`StageCosts::aggregate`].
#[derive(Debug, Clone, Default)]
pub struct StageCosts {
    /// Stage records in execution order.
    pub stages: Vec<ca_bsp::StageRecord>,
    /// Measured wall-clock seconds per stage, parallel to `stages`.
    /// Diagnostic only: not part of the cost ledger or the conformance
    /// claims (those stay model-derived), but the stage-time bench
    /// harness reads it to attribute end-to-end time to stages.
    pub wall_secs: Vec<f64>,
}

impl StageCosts {
    fn push(&mut self, name: &str, c: Costs, secs: f64) {
        self.stages.push(ca_bsp::StageRecord::new(name, c));
        self.wall_secs.push(secs);
    }

    /// Open a measured stage: snapshots the ledger, starts the wall
    /// clock, and opens a `ca_obs` span under the *same name* the
    /// [`StageRecord`](ca_bsp::StageRecord) will carry — so a trace's
    /// per-stage wall totals and cost deltas agree with this struct by
    /// construction, not by parallel bookkeeping.
    fn begin<'m>(&mut self, machine: &'m Machine, name: String) -> StageScope<'m> {
        let span = ca_obs::span(&name);
        StageScope {
            machine,
            name,
            span,
            snap: machine.snapshot(),
            t0: std::time::Instant::now(),
        }
    }

    /// Summed measured wall-clock seconds over every stage whose name
    /// starts with `prefix` (`""` sums everything).
    pub fn wall_seconds(&self, prefix: &str) -> f64 {
        self.stages
            .iter()
            .zip(&self.wall_secs)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, w)| *w)
            .sum()
    }

    /// Total costs over all stages.
    pub fn total(&self) -> Costs {
        self.aggregate("")
    }

    /// Summed costs over every stage whose name starts with `prefix`
    /// (`""` aggregates everything). Peak memory is a high-water mark,
    /// not a sum, and is maxed instead.
    pub fn aggregate(&self, prefix: &str) -> Costs {
        let mut t = Costs::default();
        for s in self.stages.iter().filter(|s| s.name.starts_with(prefix)) {
            let c = &s.costs;
            t.flops += c.flops;
            t.horizontal_words += c.horizontal_words;
            t.vertical_words += c.vertical_words;
            t.supersteps += c.supersteps;
            t.total_volume_words += c.total_volume_words;
            t.total_flops += c.total_flops;
            t.peak_memory_words = t.peak_memory_words.max(c.peak_memory_words);
        }
        t
    }

    /// Number of stages whose name starts with `prefix`.
    pub fn count(&self, prefix: &str) -> usize {
        self.stages.iter().filter(|s| s.name.starts_with(prefix)).count()
    }
}

static RT_SPAWNS: ca_obs::Counter = ca_obs::Counter::new("rt.spawns");
static RT_JOBS: ca_obs::Counter = ca_obs::Counter::new("rt.jobs");
static RT_HELPED: ca_obs::Counter = ca_obs::Counter::new("rt.helped");
static RT_PARKS: ca_obs::Counter = ca_obs::Counter::new("rt.parks");

/// An open measured stage (see [`StageCosts::begin`]): [`StageScope::end`]
/// reads the ledger delta and elapsed wall time once and feeds the one
/// reading to both the [`StageCosts`] record and the trace span.
struct StageScope<'m> {
    machine: &'m Machine,
    name: String,
    span: ca_obs::SpanGuard,
    snap: ca_bsp::CostSnapshot,
    t0: std::time::Instant,
}

impl StageScope<'_> {
    fn end(mut self, costs: &mut StageCosts) {
        let c = self.machine.costs_since(&self.snap);
        let secs = self.t0.elapsed().as_secs_f64();
        self.span
            .set_costs(c.flops, c.horizontal_words, c.vertical_words, c.supersteps);
        costs.push(&self.name, c, secs);
        // Mirror the runtime's cumulative counters into `ca_obs` (the
        // runtime sits below `ca-obs` in the package graph and cannot do
        // it itself); `rt.spawns` flat means no thread was created in
        // the traced region. One relaxed load when tracing is off.
        if ca_obs::enabled() {
            let rt = rayon::stats();
            RT_SPAWNS.record_max(rt.spawns);
            RT_JOBS.record_max(rt.jobs_run);
            RT_HELPED.record_max(rt.jobs_helped);
            RT_PARKS.record_max(rt.parks);
        }
        // `self.span` drops here, stamping the span's end time.
    }
}

/// Compute the eigenvalues of the symmetric matrix `a` with the
/// communication-avoiding 2.5D algorithm. Returns the ascending
/// eigenvalues and the per-stage cost breakdown.
///
/// ```
/// use ca_bsp::{Machine, MachineParams};
/// use ca_eigen::{symm_eigen_25d, EigenParams};
/// use ca_dla::gen;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let spectrum = gen::linspace_spectrum(32, -1.0, 1.0);
/// let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
///
/// let machine = Machine::new(MachineParams::new(4));
/// let (eigenvalues, stages) = symm_eigen_25d(&machine, &EigenParams::new(4, 1), &a);
///
/// assert!(ca_dla::tridiag::spectrum_distance(&eigenvalues, &spectrum) < 1e-8);
/// assert!(stages.total().horizontal_words > 0); // every word was metered
/// ```
pub fn symm_eigen_25d(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> (Vec<f64>, StageCosts) {
    try_symm_eigen_25d(machine, params, a).unwrap_or_else(|e| panic!("{e}"))
}

/// [`symm_eigen_25d`] with typed input validation: malformed requests
/// (non-square or asymmetric `a`, `n < 2`, inconsistent grid
/// parameters) come back as `Err(EigenError)` instead of aborting the
/// process — the entry point a serving layer should call.
pub fn try_symm_eigen_25d(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<(Vec<f64>, StageCosts), EigenError> {
    validate_input(params, a)?;
    let (ev, costs, _) = solve_impl(machine, params, a, false)?;
    Ok((ev, costs))
}

/// Eigenvalues *and eigenvectors*: the §IV.C extension. Records every
/// stage's Householder transforms and back-applies them to the
/// tridiagonal eigenvectors (`V = Q₁⋯Q_m·Z`, columns orthonormal,
/// `A·V = V·diag(λ)`). Costs the paper attributes to
/// back-transformation (`O(n³)` per intermediate band-width, `O(n²)`
/// transform memory per stage) appear in the final stage's record.
pub fn symm_eigen_25d_vectors(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> (Vec<f64>, Matrix, StageCosts) {
    try_symm_eigen_25d_vectors(machine, params, a).unwrap_or_else(|e| panic!("{e}"))
}

/// [`symm_eigen_25d_vectors`] with typed input validation (see
/// [`try_symm_eigen_25d`]).
pub fn try_symm_eigen_25d_vectors(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<(Vec<f64>, Matrix, StageCosts), EigenError> {
    validate_input(params, a)?;
    let (ev, costs, v) = solve_impl(machine, params, a, true)?;
    Ok((ev, v.expect("vectors requested"), costs))
}

/// Shared request validation for the `Result` entry points: grid
/// invariants, squareness, minimum size, symmetry. Runs before any
/// cost is charged, so a rejected request leaves the ledger untouched.
fn validate_input(params: &EigenParams, a: &Matrix) -> Result<(), EigenError> {
    params.revalidate()?;
    if a.rows() != a.cols() {
        return Err(EigenError::NonSquareInput {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if a.rows() < 2 {
        return Err(EigenError::TooSmall { n: a.rows() });
    }
    // Before the symmetry check: NaN entries compare false against the
    // tolerance, so an all-NaN matrix would otherwise sail through and
    // surface much later as a convergence failure.
    if let Some(idx) = a.data().iter().position(|v| !v.is_finite()) {
        return Err(EigenError::NonFiniteInput {
            row: idx / a.cols(),
            col: idx % a.cols(),
        });
    }
    // The one symmetry scan of a solve: the stages below trust it.
    crate::full_to_band::check_symmetric(a)
}

fn solve_impl(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    want_vectors: bool,
) -> Result<(Vec<f64>, StageCosts, Option<Matrix>), EigenError> {
    let n = a.rows();
    let p = params.p;
    let mut costs = StageCosts::default();

    let mut log = crate::transforms::TransformLog::default();

    // Stage 1: full → band at b = n / max(p^{2−3δ}, log₂ p).
    let b0 = params.initial_bandwidth(n);
    let scope = costs.begin(machine, format!("full-to-band (b={b0})"));
    let rec = want_vectors.then(|| log.stage(&format!("full-to-band (b={b0})")));
    let (mut band, _) = crate::full_to_band::full_to_band_impl(machine, params, a, b0, rec);
    scope.end(&mut costs);

    // Stage 2: successive band reductions on shrinking prefixes until
    // b ≤ n/pᵟ. Arbitrary n: the target is the exact ceiling division
    // (no power-of-two snapping), intermediate band-widths may be odd,
    // and the generalized chase plan reduces to any explicit target.
    let target_mid = n.div_ceil(params.p_delta().max(1)).max(2);
    let zeta = {
        let d = params.delta();
        (1.0 - d) / d
    };
    let mut stage = 0usize;
    while band.bandwidth() > target_mid && band.bandwidth() >= 4 {
        let shrink = 2f64.powf(zeta * stage as f64);
        let active = ((p as f64 / shrink).round() as usize).clamp(1, p);
        let grid = Grid::all(p).prefix(active);
        // Halve — unless a plain halving would overshoot `n/pᵟ`, in
        // which case this pass reduces straight to the target (ratio in
        // `[2, 4)`). For arbitrary `n` the chain `b₀ → ⌈b₀/2⌉ → …`
        // rarely lands on `n/pᵟ` exactly, and splitting the tail into
        // two passes pays the chain's most expensive step twice: a
        // pass's per-processor traffic is `O(n²/p̂) = O(n³/(p·b))`,
        // growing as `b` shrinks, and is nearly independent of how far
        // the pass reduces.
        let bw = band.bandwidth();
        let target = if bw.div_ceil(4) >= target_mid {
            bw.div_ceil(2)
        } else {
            target_mid
        };
        // Gather B onto the active prefix (line 6). Ceiling division:
        // the straggler holding the ragged remainder sets the cost.
        // Inside the stage snapshot, so the stage records cover the
        // ledger exactly.
        let scope = costs.begin(
            machine,
            format!("band-to-band (b={bw}→{target}, p̄={active})"),
        );
        coll::gather(
            machine,
            &Grid::all(p),
            0,
            ((n * (band.bandwidth() + 1)) as u64).div_ceil(p as u64),
        );
        let v_mem = params.p_2m3d();
        let (next, _) = if want_vectors {
            crate::band_to_band::band_to_band_to_logged(
                machine,
                &grid,
                &band,
                target,
                v_mem,
                log.stage(&format!("band-to-band (b={})", band.bandwidth())),
            )
        } else {
            crate::band_to_band::band_to_band_to(machine, &grid, &band, target, v_mem)
        };
        scope.end(&mut costs);
        band = next;
        stage += 1;
    }

    // Stage 3: CA-SBR halvings (b → ⌈b/2⌉) on pᵟ processors until
    // b ≤ ⌈n/p⌉.
    let target_low = n.div_ceil(p).max(1);
    let sbr_procs = params.p_delta().clamp(1, p);
    let sbr_grid = Grid::all(p).prefix(sbr_procs);
    while band.bandwidth() > target_low && band.bandwidth() >= 2 {
        let scope = costs.begin(
            machine,
            format!(
                "ca-sbr (b={}→{})",
                band.bandwidth(),
                band.bandwidth().div_ceil(2)
            ),
        );
        let next = if want_vectors {
            crate::ca_sbr::ca_sbr_logged(
                machine,
                &sbr_grid,
                &band,
                log.stage(&format!("ca-sbr (b={})", band.bandwidth())),
            )
        } else {
            ca_sbr(machine, &sbr_grid, &band)
        };
        scope.end(&mut costs);
        band = next;
    }

    // Stage 4: gather and solve sequentially (line 11).
    let scope = costs.begin(machine, "sequential eigensolve".to_string());
    let bw = band.bandwidth();
    coll::gather(
        machine,
        &Grid::all(p),
        0,
        ((n * (bw + 1)) as u64).div_ceil(p as u64),
    );
    // Sequential band → tridiagonal + eigensolve, charged to
    // processor 0: the fused rank-1 sweep is ≈ 6nb² flops, and
    // divide-and-conquer's secular solves and 2×m·m row-carrier merge
    // GEMMs are ≈ 16n² with typical deflation.
    let seq_flops = 6 * (n as u64) * (bw as u64).pow(2) + 16 * (n as u64).pow(2);
    machine.charge_flops(0, seq_flops);
    machine.charge_vert(0, (n * (bw + 1)) as u64);

    if !want_vectors {
        let ev = ca_dla::tridiag::try_banded_eigenvalues(&band)?;
        machine.fence();
        scope.end(&mut costs);
        return Ok((ev, costs, None));
    }

    // Vectors path: record the final band → tridiagonal reduction (the
    // same function the values path runs, its transforms logged as
    // block reflectors), solve the tridiagonal with eigenvector
    // accumulation, and back-transform through every stage.
    let mut blocks = Vec::new();
    let (d, e) = ca_dla::tridiag::band_to_tridiagonal(&band, Some(&mut blocks));
    // The gathered band (n × (2b + 1) words at the last halving's fill
    // capacity) has no reader past this point; the back-transformation
    // below is the solve's memory peak.
    drop(band);
    log.stage("sequential band→tridiagonal")
        .extend(blocks.into_iter().map(Into::into));
    let (ev, z) = {
        let _span = ca_obs::kernel_span("finale.dnc");
        ca_dla::dnc::dnc_eigen(&d, &e)?
    };
    machine.charge_flops(0, (6 * (n as u64).pow(3)).div_ceil(p as u64));
    machine.fence();
    scope.end(&mut costs);

    // Back-transformation (§IV.C): V = Q₁⋯Q_m·Z, O(n³) per stage.
    let scope = costs.begin(machine, "back-transformation".to_string());
    let v = crate::transforms::back_transform(machine, &Grid::all(p), &log, &z);
    scope.end(&mut costs);

    Ok((ev, costs, Some(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::spectrum_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(n: usize, p: usize, c: usize, seed: u64) -> (f64, Costs) {
        let m = Machine::new(MachineParams::new(p));
        let params = EigenParams::new(p, c);
        let mut rng = StdRng::seed_from_u64(seed);
        let spectrum = gen::linspace_spectrum(n, -5.0, 5.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let (ev, stages) = symm_eigen_25d(&m, &params, &a);
        let d = spectrum_distance(&ev, &spectrum);
        (d, stages.total())
    }

    #[test]
    fn eigenvalues_correct_2d() {
        let (d, _) = run(64, 4, 1, 300);
        assert!(d < 1e-7, "spectrum drifted {d}");
    }

    #[test]
    fn eigenvalues_correct_25d() {
        let (d, _) = run(64, 8, 2, 301);
        assert!(d < 1e-7, "spectrum drifted {d}");
    }

    #[test]
    fn eigenvalues_correct_full_replication() {
        // δ = 2/3 exactly: p = 64, c = 4.
        let (d, _) = run(32, 64, 4, 302);
        assert!(d < 1e-7, "spectrum drifted {d}");
    }

    #[test]
    fn single_processor_degenerate() {
        let (d, _) = run(32, 1, 1, 303);
        assert!(d < 1e-7, "spectrum drifted {d}");
    }

    #[test]
    fn eigenvectors_diagonalize_the_input() {
        use ca_dla::gemm::{matmul, Trans};
        for (n, p, c, seed) in [(32usize, 4usize, 1usize, 310u64), (64, 16, 1, 311), (32, 8, 2, 312)] {
            let m = Machine::new(MachineParams::new(p));
            let params = EigenParams::new(p, c);
            let mut rng = StdRng::seed_from_u64(seed);
            let spectrum = gen::linspace_spectrum(n, -3.0, 3.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let (ev, v, costs) = symm_eigen_25d_vectors(&m, &params, &a);
            assert!(spectrum_distance(&ev, &spectrum) < 1e-8 * n as f64);
            // V orthonormal.
            let vtv = matmul(&v, Trans::T, &v, Trans::N);
            assert!(
                vtv.max_diff(&Matrix::identity(n)) < 1e-8,
                "p={p} c={c}: VᵀV deviates by {}",
                vtv.max_diff(&Matrix::identity(n))
            );
            // A·V = V·Λ.
            let av = matmul(&a, Trans::N, &v, Trans::N);
            let mut vl = v.clone();
            for i in 0..n {
                for j in 0..n {
                    vl.set(i, j, v.get(i, j) * ev[j]);
                }
            }
            assert!(
                av.max_diff(&vl) < 1e-7 * n as f64,
                "p={p} c={c}: residual {}",
                av.max_diff(&vl)
            );
            // The back-transformation stage is recorded and charged.
            let last = costs.stages.last().expect("stages");
            assert!(last.name.starts_with("back-transformation"));
            assert!(last.costs.flops > 0);
        }
    }

    #[test]
    fn stage_costs_cover_all_phases() {
        let m = Machine::new(MachineParams::new(4));
        let params = EigenParams::new(4, 1);
        let mut rng = StdRng::seed_from_u64(304);
        let a = gen::random_symmetric(&mut rng, 64);
        let (_, stages) = symm_eigen_25d(&m, &params, &a);
        let names: Vec<&str> = stages.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names[0].starts_with("full-to-band"));
        assert!(names.last().unwrap().starts_with("sequential"));
        // Stage totals match the machine ledger.
        let total = stages.total();
        let ledger = m.report();
        assert_eq!(total.horizontal_words, ledger.horizontal_words);
        assert_eq!(total.supersteps, ledger.supersteps);
        // Every stage carries a measured wall-clock sample.
        assert_eq!(stages.wall_secs.len(), stages.stages.len());
        assert!(stages.wall_secs.iter().all(|w| *w >= 0.0));
        assert!(stages.wall_seconds("") >= stages.wall_seconds("full-to-band"));
    }

    #[test]
    fn replication_reduces_full_solver_communication() {
        // Within the paper's regime (c ≤ p^{1/3}; here c = p^{1/3}
        // exactly), the end-to-end solver moves fewer words with
        // replication than without.
        let (_, c1) = run(128, 64, 1, 305);
        let (_, c4) = run(128, 64, 4, 305);
        assert!(
            c4.horizontal_words < c1.horizontal_words,
            "c=4 W {} !< c=1 W {}",
            c4.horizontal_words,
            c1.horizontal_words
        );
    }
}
