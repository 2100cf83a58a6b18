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

use crate::band_to_band::try_band_to_band;
use crate::ca_sbr::ca_sbr;
use crate::error::EigenError;
use crate::params::EigenParams;
use ca_bsp::{Costs, Machine};
use ca_dla::tridiag::{safe_range_exponent, scale_pow2};
use ca_dla::{BandedSym, Matrix};
use ca_pla::coll;
use ca_pla::grid::Grid;

/// One measured stage of a solve: its tag, the ledger delta it charged
/// and the wall-clock it took.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage tag, e.g. `"full-to-band (b=16)"`. Tags are
    /// prefix-matchable: consumers aggregate repeated stages (the
    /// band-to-band chain, CA-SBR halvings) by name prefix.
    pub name: String,
    /// Costs accumulated between the stage's begin and end snapshots.
    pub costs: Costs,
    /// Measured wall-clock seconds. Diagnostic only: not part of the
    /// cost ledger or the conformance claims (those stay model-derived),
    /// but the `stage_times` binary and the benchmark read it to
    /// attribute end-to-end time to stages.
    pub wall_secs: f64,
}

/// Per-stage cost record of one eigensolver run.
///
/// Each entry is a [`StageRecord`] whose `name` starts with the
/// stage's kind — `"full-to-band"`, `"band-to-band"`, `"ca-sbr"`,
/// `"sequential eigensolve"` or `"back-transformation"` — followed by
/// the stage's parameters (band-widths, active processors). Consumers
/// that need per-kind totals (the conformance harness, the Table-I
/// printer) aggregate by prefix with [`StageCosts::aggregate`].
#[derive(Debug, Clone, Default)]
pub struct StageCosts {
    /// Stage records in execution order.
    pub stages: Vec<StageRecord>,
}

impl StageCosts {
    fn matching<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a StageRecord> {
        self.stages
            .iter()
            .filter(move |s| s.name.starts_with(prefix))
    }

    /// Open a measured stage: snapshots the ledger, starts the wall
    /// clock, and opens a `ca_obs` span under the *same name* the
    /// [`StageRecord`] will carry — so a trace's per-stage wall totals
    /// and cost deltas agree with this struct by construction, not by
    /// parallel bookkeeping.
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
        self.matching(prefix).map(|s| s.wall_secs).sum()
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
        for s in self.matching(prefix) {
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
        self.matching(prefix).count()
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
        costs.stages.push(StageRecord {
            name: self.name,
            costs: c,
            wall_secs: secs,
        });
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
/// Malformed requests (non-square, non-finite or asymmetric `a`,
/// `n < 2`, inconsistent grid parameters, a machine with fewer than `p`
/// processors) come back as
/// `Err(EigenError)` with the ledger untouched — a serving layer can
/// reject them without catching a panic.
///
/// ```
/// use ca_bsp::{Machine, MachineParams};
/// use ca_eigen::{try_symm_eigen_25d, EigenError, EigenParams};
/// use ca_dla::gen;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// fn main() -> Result<(), EigenError> {
///     let mut rng = StdRng::seed_from_u64(7);
///     let spectrum = gen::linspace_spectrum(32, -1.0, 1.0);
///     let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
///
///     let machine = Machine::new(MachineParams::new(4));
///     let params = EigenParams::try_new(4, 1)?;
///     let (eigenvalues, stages) = try_symm_eigen_25d(&machine, &params, &a)?;
///
///     assert!(ca_dla::tridiag::spectrum_distance(&eigenvalues, &spectrum) < 1e-8);
///     assert!(stages.total().horizontal_words > 0); // every word was metered
///     Ok(())
/// }
/// ```
pub fn try_symm_eigen_25d(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<(Vec<f64>, StageCosts), EigenError> {
    let amax = validate_input(machine, params, a)?;
    let (ev, costs, _) = solve_in_range(machine, params, a, amax, false)?;
    Ok((ev, costs))
}

/// Eigenvalues *and eigenvectors*: the §IV.C extension. Records every
/// stage's Householder transforms and back-applies them to the
/// tridiagonal eigenvectors (`V = Q₁⋯Q_m·Z`, columns orthonormal,
/// `A·V = V·diag(λ)`). Costs the paper attributes to
/// back-transformation (`O(n³)` per intermediate band-width, `O(n²)`
/// transform memory per stage) appear in the final stage's record.
/// Requests are validated as by [`try_symm_eigen_25d`].
pub fn try_symm_eigen_25d_vectors(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<(Vec<f64>, Matrix, StageCosts), EigenError> {
    let amax = validate_input(machine, params, a)?;
    let (ev, costs, v) = solve_in_range(machine, params, a, amax, true)?;
    Ok((ev, v.expect("vectors requested"), costs))
}

/// Shared request validation for the `Result` entry points: grid
/// invariants, a machine that holds the grid, squareness, minimum size,
/// symmetry. Runs before any cost is charged, so a rejected request
/// leaves the ledger untouched. Returns `‖A‖_max`.
fn validate_input(machine: &Machine, params: &EigenParams, a: &Matrix) -> Result<f64, EigenError> {
    params.revalidate()?;
    params.check_machine(machine)?;
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

/// [`solve_impl`] on `a` brought into LAPACK `dsyev`'s safe range
/// ([`in_safe_range`]; `amax = ‖A‖_max` comes from `check_symmetric`'s
/// scan, uncharged).
fn solve_in_range(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    amax: f64,
    want_vectors: bool,
) -> Result<(Vec<f64>, StageCosts, Option<Matrix>), EigenError> {
    in_safe_range(
        a,
        amax,
        |a| solve_impl(machine, params, a, want_vectors),
        |r| r.as_mut().ok().map(|(ev, ..)| ev),
    )
}

/// `solve(a)`, with `a` first brought into LAPACK `dsyev`'s safe range:
/// when `amax = ‖A‖_max` lies outside it
/// ([`ca_dla::tridiag::safe_range_exponent`]), `solve` gets `2^k·A` with
/// `‖2^k·A‖_max ∈ [½, 1)` and the eigenvalues `eigenvalues` finds in its
/// result are scaled back by `2^−k`. Both scalings are exact and charge
/// nothing, so the ledger is the unit-scale run's, and eigenvectors need
/// no unscaling; in-range inputs are solved as they are. The solver and
/// the Table I baselines enter through here.
pub(crate) fn in_safe_range<R>(
    a: &Matrix,
    amax: f64,
    solve: impl FnOnce(&Matrix) -> R,
    eigenvalues: impl FnOnce(&mut R) -> Option<&mut Vec<f64>>,
) -> R {
    let Some(k) = safe_range_exponent(amax) else {
        return solve(a);
    };
    let mut scaled = a.clone();
    scale_pow2(scaled.data_mut(), k);
    let mut result = solve(&scaled);
    if let Some(ev) = eigenvalues(&mut result) {
        scale_pow2(ev, -k);
    }
    result
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
    let rec = want_vectors.then(|| log.stage());
    let mut band = crate::full_to_band::full_to_band_impl(machine, params, a, b0, rec);
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
        let rec = want_vectors.then(|| log.stage());
        let next = try_band_to_band(machine, &grid, &band, target, params.p_2m3d(), rec)?;
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
        let rec = want_vectors.then(|| log.stage());
        let next = ca_sbr(machine, &sbr_grid, &band, rec);
        scope.end(&mut costs);
        band = next;
    }

    // Stage 4: gather and solve sequentially (line 11).
    let scope = costs.begin(machine, "sequential eigensolve".to_string());
    gather_and_charge_finale(machine, p, &band);

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
    log.stage().extend(blocks);
    let (ev, z) = {
        let _span = ca_obs::kernel_span("finale.tridiag");
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

/// Line 11's gather and sequential-finale charge: the `n × (b + 1)`
/// band lands on processor 0, which reads it once and is charged the
/// band → tridiagonal sweep and the eigensolve — the fused rank-1 sweep
/// is ≈ 6nb² flops, and the `16n²` term bounds the eigenvalues-only
/// tridiagonal solve, `dsterf`'s root-free QL: 12 flops per inner step
/// over ≈ 2 iterations per eigenvalue — counted at n = 1024, 1.03n²
/// steps on an evenly spaced spectrum and 0.60n² on a clustered one, so
/// 7–12n². (The term was sized for the divide-and-conquer it replaced;
/// the ledger did not move.) The
/// solver's stage 4 and the CA-SBR and ELPA baselines charge the finale
/// here and nowhere else.
pub(crate) fn gather_and_charge_finale(machine: &Machine, p: usize, band: &BandedSym) {
    let n = band.n() as u64;
    let bw = band.bandwidth() as u64;
    coll::gather(machine, &Grid::all(p), 0, (n * (bw + 1)).div_ceil(p as u64));
    machine.charge_flops(0, 6 * n * bw * bw + 16 * n * n);
    machine.charge_vert(0, n * (bw + 1));
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
        let (ev, stages) = try_symm_eigen_25d(&m, &params, &a).unwrap();
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
        for (n, p, c, seed) in [
            (32usize, 4usize, 1usize, 310u64),
            (64, 16, 1, 311),
            (32, 8, 2, 312),
        ] {
            let m = Machine::new(MachineParams::new(p));
            let params = EigenParams::new(p, c);
            let mut rng = StdRng::seed_from_u64(seed);
            let spectrum = gen::linspace_spectrum(n, -3.0, 3.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let (ev, v, costs) = try_symm_eigen_25d_vectors(&m, &params, &a).unwrap();
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
        let (_, stages) = try_symm_eigen_25d(&m, &params, &a).unwrap();
        let names: Vec<&str> = stages.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names[0].starts_with("full-to-band"));
        assert!(names.last().unwrap().starts_with("sequential"));
        // Stage totals match the machine ledger.
        let total = stages.total();
        let ledger = m.report();
        assert_eq!(total.horizontal_words, ledger.horizontal_words);
        assert_eq!(total.supersteps, ledger.supersteps);
        // Every stage carries a measured wall-clock sample.
        assert!(stages.stages.iter().all(|s| s.wall_secs >= 0.0));
        assert!(stages.wall_seconds("") >= stages.wall_seconds("full-to-band"));
    }

    #[test]
    fn badly_scaled_input_solves_like_unit_scale() {
        use ca_dla::gemm::{matmul, Trans};
        let (n, p) = (64, 4);
        let params = EigenParams::new(p, 1);
        let a = gen::random_symmetric(&mut StdRng::seed_from_u64(320), n);
        let solve = |a: &Matrix| {
            let values = try_symm_eigen_25d(&Machine::new(MachineParams::new(p)), &params, a);
            let vectors =
                try_symm_eigen_25d_vectors(&Machine::new(MachineParams::new(p)), &params, a);
            (values.unwrap(), vectors.unwrap())
        };
        let ledger = |c: &StageCosts| -> Vec<(String, Costs)> {
            c.stages.iter().map(|s| (s.name.clone(), s.costs)).collect()
        };
        let ((ev1, costs1), (_, _, vcosts1)) = solve(&a);
        let lmax = ev1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = 100.0 * n as f64 * f64::EPSILON * lmax;
        for s in [1e-200, 1e-150, 1e150, 1e160] {
            let mut a_s = a.clone();
            a_s.scale(s);
            let ((ev, costs), (vev, v, vcosts)) = solve(&a_s);
            for (path, ev) in [("values", &ev), ("vectors", &vev)] {
                let err = ev
                    .iter()
                    .zip(&ev1)
                    .fold(0.0f64, |m, (x, y)| m.max((x / s - y).abs()));
                assert!(err <= tol, "s = {s:e}, {path}: error {err:e} > {tol:e}");
            }
            // ‖A·V − V·Λ_s/s‖_max at unit scale.
            let av = matmul(&a, Trans::N, &v, Trans::N);
            let mut vl = v.clone();
            for i in 0..n {
                for j in 0..n {
                    vl.set(i, j, v.get(i, j) * (vev[j] / s));
                }
            }
            let res = av.max_diff(&vl);
            assert!(res <= tol, "s = {s:e}: residual {res:e} > {tol:e}");
            assert_eq!(ledger(&costs), ledger(&costs1), "s = {s:e}: values");
            assert_eq!(ledger(&vcosts), ledger(&vcosts1), "s = {s:e}: vectors");
        }
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
