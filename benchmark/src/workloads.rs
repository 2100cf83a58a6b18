//! The four workloads and the two passes over them: the end-to-end
//! pass (tracing off) and the traced pass that yields the per-layer
//! metrics. Set-up is repeated several times per run so `setup_s`
//! is a median, and every set-up's input is used by the timed loop.

use crate::check::{reference_of, Defects, Problem, Reference, Solved, Spectrum};
use crate::layers::{self, HostPeaks};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::{alloc, sys, Metric, Opts, Outcome};
use ca_bsp::Costs;
use ca_eigen::StageCosts;
use ca_service::{EigenService, ServiceConfig, StatsSnapshot, SymmEigenJob};
use std::time::Instant;

/// Set-ups per solver run; each contributes one input to the timed loop.
const SETUPS: usize = 3;
/// Set-ups per service run: each takes under 0.1 s, so more of them
/// are needed for a steady median.
const SERVICE_SETUPS: usize = 7;
/// Latency samples a client has room for (60 s at 2 000 jobs/s).
const LATENCY_LOG_CAPACITY: usize = 1 << 17;
/// Jobs a client keeps in flight: one `submit_batch`, then in-order waits.
const WINDOW: usize = 8;
/// Warm-up jobs sent through a freshly built service.
const SERVICE_WARMUP_JOBS: usize = 32;
/// The service mix: job `i` has `n = SIZES[i % 8]`; every fourth wants
/// vectors. A window of eight holds every size once.
const SIZES: [usize; 8] = [8, 13, 16, 24, 32, 48, 64, 96];

#[derive(Clone, Copy)]
pub struct SolverShape {
    pub n: usize,
    pub p: usize,
    pub c: usize,
    pub vectors: bool,
    pub spectrum: Spectrum,
}

#[derive(Clone, Copy)]
pub enum Kind {
    Solver(SolverShape),
    /// A pool of `pool` jobs served through `EigenService`.
    Service {
        pool: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// `n`, `p`, `c` and the pool size are constants: a run that needs
/// less time measures for fewer seconds, never a smaller problem.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "values_p4",
        kind: Kind::Solver(SolverShape {
            n: 1024,
            p: 4,
            c: 1,
            vectors: false,
            spectrum: Spectrum::Linspace,
        }),
    },
    Workload {
        name: "values_p64c4",
        kind: Kind::Solver(SolverShape {
            n: 1024,
            p: 64,
            c: 4,
            vectors: false,
            spectrum: Spectrum::Linspace,
        }),
    },
    Workload {
        name: "vectors_p4",
        kind: Kind::Solver(SolverShape {
            n: 768,
            p: 4,
            c: 1,
            vectors: true,
            spectrum: Spectrum::Clustered,
        }),
    },
    Workload {
        name: "service_mix",
        kind: Kind::Service { pool: 256 },
    },
];

impl Workload {
    /// The same workload at selftest size.
    fn toy(&self) -> Kind {
        match self.kind {
            Kind::Solver(s) => Kind::Solver(SolverShape { n: 96, ..s }),
            Kind::Service { .. } => Kind::Service { pool: 32 },
        }
    }
}

/// Stage kinds of a solve, as metric suffix and `StageCosts` name prefix.
const STAGES: [(&str, &str); 5] = [
    ("full_to_band", "full-to-band"),
    ("band_to_band", "band-to-band"),
    ("ca_sbr", "ca-sbr"),
    ("finale", "sequential eigensolve"),
    ("back_transform", "back-transformation"),
];

/// Wall seconds of the stages named `prefix…`; `+ 0.0` because the
/// sum over no stages is -0.0.
fn stage_wall_s(costs: &StageCosts, prefix: &str) -> f64 {
    costs.wall_seconds(prefix) + 0.0
}

fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64 + 1)
}

/// What the end-to-end pass measured.
struct Timed {
    setup_s: Vec<f64>,
    /// Latency of each correct timed operation, ms.
    op_ms: Vec<f64>,
    /// Wall seconds the timed operations took.
    wall_s: f64,
    cpu_s: f64,
}

impl Timed {
    fn metrics(&self) -> Vec<Metric> {
        let ops = self.op_ms.len() as f64;
        let q = |q: f64| percentile(&self.op_ms, q);
        eprintln!(
            "op_ms over {ops} samples: min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3}",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("op_ms_p50", median(&self.op_ms), "ms"),
            Metric::new("ops_per_s", ops / self.wall_s, "1/s"),
            Metric::new("cpu_ms_per_op", self.cpu_s * 1e3 / ops, "ms"),
            Metric::new("peak_heap_mb", alloc::peak_heap_mb(), "MB"),
        ]
    }
}

pub fn run(w: &Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let kind = if opts.toy { w.toy() } else { w.kind };
    let mut rec = Recorder::new(Instant::now());
    eprintln!("{}: load average before {:.2}", w.name, sys::loadavg_1m());
    match kind {
        Kind::Solver(shape) => solver(shape, opts, &mut out, &mut rec),
        Kind::Service { pool } => service(pool, opts, &mut out, &mut rec),
    }
    eprintln!(
        "{}: load average after {:.2}; peak resident set (VmHWM, not a metric) {:.1} MB",
        w.name,
        sys::loadavg_1m(),
        sys::peak_rss_mb()
    );
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        // A selftest run must not overwrite a real trace.
        let path = dir.join(format!(
            "{}{}.trace.json",
            if opts.toy { "selftest." } else { "" },
            w.name
        ));
        let header = [
            ("workload", crate::json::quote(w.name)),
            ("seed", opts.seed.to_string()),
            ("host", crate::json::quote(&sys::fingerprint())),
            ("metrics", crate::metrics_json(&out.metrics)),
        ];
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, rec.to_json(&header)));
        match written {
            Ok(()) => eprintln!(
                "{}: {} spans written to {}",
                w.name,
                rec.spans.len(),
                path.display()
            ),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    out
}

// ───────────────────────────── solver workloads ─────────────────────────────

struct Input {
    problem: Problem,
    reference: Reference,
    defects: Defects,
}

/// Run `f` with `ca_obs` at level 1 (counters live), then switch it
/// off again and empty the program's own span ring.
fn observed<T>(f: impl FnOnce() -> T) -> T {
    ca_obs::set_level(1);
    let out = f();
    ca_obs::set_level(0);
    ca_obs::drain();
    out
}

/// One set-up: generate the input and solve it once. That first solve
/// is the warm-up and the reference later solves must reproduce.
fn solver_setups(shape: SolverShape, opts: &Opts, out: &mut Outcome) -> (Vec<Input>, Vec<f64>) {
    let mut inputs = Vec::new();
    let mut setup_s = Vec::new();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let problem = Problem::generate(
            sub_seed(opts.seed, k),
            shape.n,
            shape.p,
            shape.c,
            shape.vectors,
            shape.spectrum,
        );
        let warm = problem.solve();
        setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        let checked = warm.and_then(|s| {
            let defects = problem.verify(&s.eigenvalues, s.vectors.as_ref())?;
            Ok((
                reference_of(&s.eigenvalues, s.vectors.as_ref(), &s.costs),
                defects,
            ))
        });
        match checked {
            Ok((reference, defects)) => inputs.push(Input {
                problem,
                reference,
                defects,
            }),
            Err(e) => out.fail(format!("set-up {k}: {e}")),
        }
    }
    (inputs, setup_s)
}

/// Solve `input` once and hold the result against its reference.
fn checked_solve(input: &Input, out: &mut Outcome) -> Option<Solved> {
    out.attempted += 1;
    match input.problem.solve() {
        Ok(s) if reference_of(&s.eigenvalues, s.vectors.as_ref(), &s.costs) == input.reference => {
            Some(s)
        }
        Ok(_) => {
            out.fail("output bits or ledger differ from the first solve of this input".into());
            None
        }
        Err(e) => {
            out.fail(e);
            None
        }
    }
}

fn solver(shape: SolverShape, opts: &Opts, out: &mut Outcome, rec: &mut Recorder) {
    let (inputs, setup_s) = solver_setups(shape, opts, out);
    if inputs.is_empty() {
        return;
    }
    if opts.trace {
        solver_traced(shape, opts, &inputs, out, rec);
    } else {
        solver_end_to_end(opts, &inputs, setup_s, out);
    }
}

/// The end-to-end pass: solve the inputs in turn for `opts.seconds`.
fn solver_end_to_end(opts: &Opts, inputs: &[Input], setup_s: Vec<f64>, out: &mut Outcome) {
    let cpu0 = sys::cpu_seconds();
    let mut op_ms = Vec::new();
    let mut spent = 0.0;
    let mut rep = 0;
    while spent < opts.seconds || rep < inputs.len() {
        let t0 = Instant::now();
        let solved = checked_solve(&inputs[rep % inputs.len()], out);
        // The solve's own wall where there is one; the bit and
        // ledger comparison stays outside the timed interval.
        spent += solved
            .as_ref()
            .map_or(t0.elapsed().as_secs_f64(), |s| s.wall_s);
        op_ms.extend(solved.map(|s| s.wall_s * 1e3));
        rep += 1;
    }
    let cpu_s = sys::cpu_seconds() - cpu0;
    if !op_ms.is_empty() {
        out.metrics = Timed {
            setup_s,
            op_ms,
            wall_s: spent,
            cpu_s,
        }
        .metrics();
    }
}

/// The traced pass: the layers below the solver first, then the solver.
fn solver_traced(
    shape: SolverShape,
    opts: &Opts,
    inputs: &[Input],
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let peaks = below_the_solver(shape, opts, out, rec);

    // One steady-state solve with the program's counters and the
    // counting allocator on.
    ca_obs::counters::reset();
    let (counted, allocs) = alloc::counting(|| observed(|| checked_solve(&inputs[0], out)));
    out.metrics.extend(counter_metrics(allocs as f64, 1.0));
    let Some(counted) = counted else { return };

    // The plain single-threaded baseline.
    let serial_ms: Vec<f64> = (0..3)
        .filter_map(|_| ca_pla::exec::with_forced_serial(|| checked_solve(&inputs[0], out)))
        .map(|s| s.wall_s * 1e3)
        .collect();

    // Alternate untraced and traced solves, so both medians see the
    // same machine state and their ratio is the tracing overhead.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    // Each traced solve against the untraced solve just before it.
    let mut overhead = Vec::new();
    let mut stage_ms: [Vec<f64>; 5] = Default::default();
    let mut unattributed_ms = Vec::new();
    let mut spent = 0.0;
    let mut rep = 0;
    while spent < opts.seconds || rep < 2 * inputs.len() {
        // A new input every solve, so neither kind of solve finds its
        // input warm in cache from the solve before.
        let input = &inputs[rep % inputs.len()];
        let traced = rep % 2 == 1;
        let start_us = rec.now_us();
        let solved = if traced {
            observed(|| checked_solve(input, out))
        } else {
            checked_solve(input, out)
        };
        spent += (rec.now_us() - start_us) / 1e6;
        rep += 1;
        let Some(s) = solved else { continue };
        if !traced {
            plain_ms.push(s.wall_s * 1e3);
            continue;
        }
        traced_ms.push(s.wall_s * 1e3);
        if let Some(plain) = plain_ms.last() {
            overhead.push(s.wall_s * 1e3 / plain - 1.0);
        }
        let solve_span = rec.add(
            None,
            rep as u64,
            "eigen",
            "solve",
            start_us,
            start_us + s.wall_s * 1e6,
        );
        // Stage children laid end to end from the stage walls the
        // solver returned; what they leave uncovered is the solve
        // span's self time: validation, gathers, glue.
        let mut at = start_us;
        for (i, (kind, prefix)) in STAGES.iter().enumerate() {
            let wall_us = stage_wall_s(&s.costs, prefix) * 1e6;
            stage_ms[i].push(wall_us / 1e3);
            if s.costs.count(prefix) > 0 {
                rec.add(
                    Some(solve_span),
                    rep as u64,
                    "eigen",
                    kind,
                    at,
                    at + wall_us,
                );
                at += wall_us;
            }
        }
        unattributed_ms.push(s.wall_s * 1e3 - s.costs.wall_seconds("") * 1e3);
    }
    if plain_ms.is_empty() || traced_ms.is_empty() || serial_ms.is_empty() {
        return;
    }

    let solve_ms = median(&traced_ms);
    let stage_median: Vec<f64> = stage_ms.iter().map(|v| median(v)).collect();
    // A stage's share of its own solve, then the median of the shares:
    // steadier than a ratio of medians when the host speeds up or
    // slows down between solves.
    let stage_frac: Vec<f64> = stage_ms
        .iter()
        .map(|v| {
            median(
                &v.iter()
                    .zip(&traced_ms)
                    .map(|(s, t)| s / t)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let closure = (stage_median.iter().sum::<f64>() + median(&unattributed_ms)) / solve_ms - 1.0;
    eprintln!(
        "eigen: stage medians + unattributed = traced solve median {solve_ms:.3} ms {:+.2} %; {} traced, {} untraced solves",
        closure * 100.0,
        traced_ms.len(),
        plain_ms.len()
    );
    out.metrics.push(Metric::new(
        "pla.parallel_speedup",
        median(&serial_ms) / median(&plain_ms),
        "ratio",
    ));
    out.metrics
        .extend(ledger_metrics(&counted.costs.aggregate("")));
    let flops: Vec<f64> = STAGES
        .iter()
        .map(|(_, p)| counted.costs.aggregate(p).total_flops as f64)
        .collect();
    out.metrics.extend(stage_metrics(
        &stage_median,
        &stage_frac,
        median(&unattributed_ms),
        &flops,
        peaks.as_ref(),
    ));
    out.metrics
        .extend(defect_metrics(inputs.iter().map(|i| &i.defects)));
    out.metrics.extend(service_metrics(None));
    out.metrics.push(Metric::new(
        "obs.trace_overhead_frac",
        median(&overhead),
        "ratio",
    ));
}

// ─────────────────────────── per-layer metric groups ───────────────────────────

/// The `host`, `dla` and `pla` metrics at `shape`; returns the host's
/// peaks when calibration is on.
fn below_the_solver(
    shape: SolverShape,
    opts: &Opts,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Option<HostPeaks> {
    let SolverShape {
        n, p, c, spectrum, ..
    } = shape;
    out.metrics
        .push(Metric::new("host.nproc", sys::nproc() as f64, "count"));
    let peaks = opts.calibrate.then(|| layers::calibrate(rec));
    if let Some(peaks) = &peaks {
        out.metrics.extend([
            Metric::new("host.gemm_gflops", peaks.gemm_gflops, "GFLOP/s"),
            Metric::new("host.copy_gbs", peaks.copy_gbs, "GB/s"),
        ]);
    }
    out.metrics
        .extend(layers::dla_kernels(rec, opts.seed, n, p, c, spectrum));
    out.metrics
        .extend(layers::pla_blocks(rec, opts.seed, n, p, c));
    peaks
}

/// The program's own counters over `solves` observed solves, plus the
/// allocation count the counting allocator saw.
fn counter_metrics(allocs: f64, solves: f64) -> Vec<Metric> {
    let counters = ca_obs::counters::snapshot();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let roots = get("dnc.secular_roots");
    vec![
        Metric::new(
            "dla.secular_iters_per_root",
            if roots > 0.0 {
                get("dnc.secular_iters") / roots
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "dla.chase_windows",
            get("bulge.chase_windows") / solves,
            "count",
        ),
        Metric::new(
            "dla.workspace_grows",
            get("workspace.grows") / solves,
            "count",
        ),
        Metric::new("dla.allocs_per_solve", allocs / solves, "count"),
        Metric::new(
            "pla.dag_ready_depth_peak",
            get("dag.ready_queue_depth"),
            "count",
        ),
        Metric::new("obs.counters_seen", counters.len() as f64, "count"),
    ]
}

/// The paper's quantities, from the metered ledger: exact counts.
fn ledger_metrics(c: &Costs) -> Vec<Metric> {
    vec![
        Metric::new("bsp.flops", c.flops as f64, "flops"),
        Metric::new("bsp.words_h", c.horizontal_words as f64, "words"),
        Metric::new("bsp.words_v", c.vertical_words as f64, "words"),
        Metric::new("bsp.supersteps", c.supersteps as f64, "count"),
        Metric::new("bsp.peak_mem_words", c.peak_memory_words as f64, "words"),
    ]
}

/// Per stage kind: time, share of the solve, metered flop rate and,
/// when the host was calibrated, that rate over the measured GEMM peak.
fn stage_metrics(
    ms: &[f64],
    frac: &[f64],
    unattributed_ms: f64,
    flops: &[f64],
    peaks: Option<&HostPeaks>,
) -> Vec<Metric> {
    let mut m = Vec::new();
    for (i, (kind, _)) in STAGES.iter().enumerate() {
        let gflops = if ms[i] > 0.0 {
            flops[i] / (ms[i] * 1e-3) / 1e9
        } else {
            0.0
        };
        m.push(Metric::new(&format!("eigen.{kind}_ms"), ms[i], "ms"));
        m.push(Metric::new(&format!("eigen.{kind}_frac"), frac[i], "ratio"));
        m.push(Metric::new(
            &format!("eigen.{kind}_gflops"),
            gflops,
            "GFLOP/s",
        ));
        if let Some(p) = peaks {
            m.push(Metric::new(
                &format!("eigen.{kind}_frac_of_peak"),
                gflops / p.gemm_gflops,
                "ratio",
            ));
        }
    }
    m.push(Metric::new("eigen.unattributed_ms", unattributed_ms, "ms"));
    m
}

/// The worst numerical defects over the inputs.
fn defect_metrics<'a>(defects: impl Iterator<Item = &'a Defects>) -> Vec<Metric> {
    let worst = defects.fold(Defects::default(), |w, d| Defects {
        spectrum_error: w.spectrum_error.max(d.spectrum_error),
        residual: w.residual.max(d.residual),
        orthogonality: w.orthogonality.max(d.orthogonality),
    });
    vec![
        Metric::new("eigen.spectrum_error", worst.spectrum_error, "ratio"),
        Metric::new("eigen.residual_defect", worst.residual, "ratio"),
        Metric::new("eigen.orth_defect", worst.orthogonality, "ratio"),
    ]
}

/// What the traced service pass measured; `None` on the solver
/// workloads, which report the service layer as not exercised (0).
struct ServiceLayer<'a> {
    /// Service counters before and after the traced half.
    before: StatsSnapshot,
    after: StatsSnapshot,
    workers: usize,
    wall_s: f64,
    /// Solo seconds of the jobs served.
    solo_s: f64,
    latency_ms: &'a [f64],
}

impl ServiceLayer<'_> {
    /// Growth of one counter over the traced half.
    fn grew(&self, f: fn(&StatsSnapshot) -> u64) -> f64 {
        (f(&self.after) - f(&self.before)) as f64
    }

    fn jobs(&self) -> f64 {
        self.grew(|s| s.completed + s.failed).max(1.0)
    }
}

fn service_metrics(layer: Option<&ServiceLayer>) -> Vec<Metric> {
    const NAMES: [(&str, &str); 11] = [
        ("service.queue_wait_ms_mean", "ms"),
        ("service.solve_ms_mean", "ms"),
        ("service.worker_busy_frac", "ratio"),
        ("service.batches", "count"),
        ("service.batched_frac", "ratio"),
        ("service.queue_depth_peak", "count"),
        ("service.rejected", "count"),
        ("service.speedup_vs_solo", "ratio"),
        ("service.latency_p90_ms", "ms"),
        ("service.latency_p99_ms", "ms"),
        ("service.latency_p999_ms", "ms"),
    ];
    let values = layer.map_or([0.0; 11], |l| {
        let solve_us = l.grew(|s| s.solve_us);
        [
            l.grew(|s| s.queue_wait_us) / 1e3 / l.jobs(),
            solve_us / 1e3 / l.jobs(),
            solve_us / 1e6 / (l.workers as f64 * l.wall_s),
            l.grew(|s| s.batches),
            l.grew(|s| s.batched_jobs) / l.jobs(),
            l.after.queue_depth_peak as f64,
            l.grew(|s| s.rejected),
            l.solo_s / l.wall_s,
            percentile(l.latency_ms, 0.90),
            percentile(l.latency_ms, 0.99),
            percentile(l.latency_ms, 0.999),
        ]
    });
    NAMES
        .iter()
        .zip(values)
        .map(|((name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

// ───────────────────────────── service workload ─────────────────────────────

struct PoolJob {
    problem: Problem,
    reference: Reference,
    /// Wall of the solo solve on the main thread, seconds.
    solo_s: f64,
    defects: Defects,
}

fn job_of(p: &Problem) -> SymmEigenJob {
    if p.vectors {
        SymmEigenJob::with_vectors(p.a.clone(), p.p, p.c)
    } else {
        SymmEigenJob::values(p.a.clone(), p.p, p.c)
    }
}

/// What one client thread saw.
struct ClientLog {
    attempted: u64,
    errors: Vec<String>,
    /// Latency of each correct job, ms.
    latency_ms: Vec<f64>,
    /// Solo seconds of the jobs served correctly.
    solo_s: f64,
    stage_s: [f64; 5],
    stage_flops: [f64; 5],
    spans: Recorder,
}

/// The closed loop: each of `clients` threads submits a window of
/// [`WINDOW`] jobs in one `submit_batch` and waits for them in order
/// before the next window, until `seconds` have passed. A job's latency
/// runs from the `submit_batch` call to its own in-order `wait`
/// returning. Clients block in `wait` while workers run. With
/// `span_origin` set, every round is recorded on that clock.
fn serve(
    service: &EigenService,
    pool: &[PoolJob],
    clients: usize,
    seconds: f64,
    span_origin: Option<Instant>,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let client = |t: usize| {
        let mut log = ClientLog {
            attempted: 0,
            errors: Vec::new(),
            // Room for any run up front: a log that grew by doubling
            // would make the heap peak depend on how many jobs were served.
            latency_ms: Vec::with_capacity(LATENCY_LOG_CAPACITY),
            solo_s: 0.0,
            stage_s: [0.0; 5],
            stage_flops: [0.0; 5],
            spans: Recorder::new(span_origin.unwrap_or(start)),
        };
        let base = t * pool.len() / clients;
        let mut round = 0;
        while start.elapsed().as_secs_f64() < seconds {
            let picks: Vec<usize> = (0..WINDOW)
                .map(|s| (base + round * WINDOW + s) % pool.len())
                .collect();
            let jobs: Vec<SymmEigenJob> = picks.iter().map(|&i| job_of(&pool[i].problem)).collect();
            let op = (t * 1_000_000 + round) as u64;
            let submit = Instant::now();
            let submit_us = log.spans.now_us();
            let tickets = service.submit_batch(jobs);
            let round_span = span_origin.map(|_| {
                let id = log
                    .spans
                    .add(None, op, "service", "round", submit_us, submit_us);
                let now = log.spans.now_us();
                log.spans
                    .add(Some(id), op, "service", "submit_batch", submit_us, now);
                (id, now)
            });
            let mut waited_us = round_span.map_or(0.0, |(_, now)| now);
            for (ticket, &i) in tickets.into_iter().zip(&picks) {
                log.attempted += 1;
                let result = ticket.and_then(|t| t.wait());
                let latency_ms = submit.elapsed().as_secs_f64() * 1e3;
                if let Some((id, _)) = round_span {
                    let now = log.spans.now_us();
                    log.spans
                        .add(Some(id), op, "service", "wait", waited_us, now);
                    waited_us = now;
                }
                // Hashing the reply is the client consuming it: after
                // the latency stamp, and ≈ 0.1 % of a solve.
                match result {
                    Ok(r)
                        if reference_of(&r.eigenvalues, r.vectors.as_ref(), &r.costs)
                            == pool[i].reference =>
                    {
                        log.latency_ms.push(latency_ms);
                        log.solo_s += pool[i].solo_s;
                        for (k, (_, prefix)) in STAGES.iter().enumerate() {
                            log.stage_s[k] += stage_wall_s(&r.costs, prefix);
                            log.stage_flops[k] += r.costs.aggregate(prefix).total_flops as f64;
                        }
                    }
                    Ok(_) => log.errors.push(format!(
                        "job {i}: bits or ledger differ from the solo solve"
                    )),
                    Err(e) => log.errors.push(format!("job {i}: {e}")),
                }
            }
            if let Some((id, _)) = round_span {
                log.spans.spans[id as usize].end_us = waited_us;
            }
            round += 1;
        }
        log
    };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| scope.spawn(move || client(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Fold the clients' counts into the outcome and return all latencies.
fn absorb(logs: &[ClientLog], out: &mut Outcome) -> Vec<f64> {
    for log in logs {
        out.attempted += log.attempted;
        for e in &log.errors {
            out.fail(e.clone());
        }
    }
    logs.iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect()
}

/// One service set-up: generate the pool, build the service, send the
/// warm-up jobs through it. The solo reference solves that follow are
/// the checker's, not the user's, and stay outside `setup_s`.
fn service_setup(
    pool_len: usize,
    workers: usize,
    seed: u64,
    out: &mut Outcome,
) -> Option<(EigenService, Vec<PoolJob>, f64)> {
    let t0 = Instant::now();
    let problems: Vec<Problem> = (0..pool_len)
        .map(|i| {
            Problem::generate(
                sub_seed(seed, i),
                SIZES[i % 8],
                4,
                1,
                i % 4 == 3,
                Spectrum::Linspace,
            )
        })
        .collect();
    let service = EigenService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let mut warm = Vec::new();
    for window in problems[..SERVICE_WARMUP_JOBS.min(pool_len)].chunks(WINDOW) {
        let tickets = service.submit_batch(window.iter().map(job_of));
        warm.extend(tickets.into_iter().map(|t| t.and_then(|t| t.wait())));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut pool = Vec::new();
    for (i, problem) in problems.into_iter().enumerate() {
        out.attempted += 1;
        let solved = problem.solve().and_then(|s| {
            let defects = problem.verify(&s.eigenvalues, s.vectors.as_ref())?;
            Ok((s, defects))
        });
        match solved {
            Ok((s, defects)) => pool.push(PoolJob {
                reference: reference_of(&s.eigenvalues, s.vectors.as_ref(), &s.costs),
                solo_s: s.wall_s,
                defects,
                problem,
            }),
            Err(e) => {
                out.fail(format!("pool job {i}: {e}"));
                return None;
            }
        }
    }
    for (i, r) in warm.into_iter().enumerate() {
        out.attempted += 1;
        match r {
            Ok(r)
                if reference_of(&r.eigenvalues, r.vectors.as_ref(), &r.costs)
                    == pool[i].reference => {}
            Ok(_) => out.fail(format!(
                "warm-up job {i}: bits or ledger differ from the solo solve"
            )),
            Err(e) => out.fail(format!("warm-up job {i}: {e}")),
        }
    }
    Some((service, pool, setup_s))
}

fn service(pool_len: usize, opts: &Opts, out: &mut Outcome, rec: &mut Recorder) {
    // Generator, clients and workers never exceed nproc threads each.
    let workers = sys::nproc().min(4);
    let mut setup_s = Vec::new();
    let mut last = None;
    for k in 0..SERVICE_SETUPS {
        // Shut the previous service down before building the next.
        drop(last.take());
        let Some((service, pool, s)) =
            service_setup(pool_len, workers, sub_seed(opts.seed, 1000 * k), out)
        else {
            return;
        };
        setup_s.push(s);
        last = Some((service, pool));
    }
    let (service, pool) = last.expect("at least one set-up");

    if opts.trace {
        service_traced(&service, &pool, workers, opts, out, rec);
    } else {
        service_end_to_end(&service, &pool, workers, setup_s, opts, out);
    }
}

/// The end-to-end pass: `workers` clients in the closed loop for
/// `opts.seconds`.
fn service_end_to_end(
    service: &EigenService,
    pool: &[PoolJob],
    clients: usize,
    setup_s: Vec<f64>,
    opts: &Opts,
    out: &mut Outcome,
) {
    let cpu0 = sys::cpu_seconds();
    let (logs, wall_s) = serve(service, pool, clients, opts.seconds, None);
    let cpu_s = sys::cpu_seconds() - cpu0;
    let op_ms = absorb(&logs, out);
    if !op_ms.is_empty() {
        out.metrics = Timed {
            setup_s,
            op_ms,
            wall_s,
            cpu_s,
        }
        .metrics();
    }
}

/// The traced pass. The layers below the solver are measured at the
/// largest job of the mix.
fn service_traced(
    service: &EigenService,
    pool: &[PoolJob],
    workers: usize,
    opts: &Opts,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let clients = workers;
    let largest = SolverShape {
        n: *SIZES.iter().max().expect("sizes"),
        p: 4,
        c: 1,
        vectors: false,
        spectrum: Spectrum::Linspace,
    };
    let peaks = below_the_solver(largest, opts, out, rec);

    // The plain single-threaded baseline: one solo pass over the pool
    // forced serial, against the solo pass of the set-up.
    let serial_s: f64 = ca_pla::exec::with_forced_serial(|| {
        pool.iter()
            .filter_map(|j| j.problem.solve().ok())
            .map(|s| s.wall_s)
            .sum()
    });
    let solo_pass_s: f64 = pool.iter().map(|j| j.solo_s).sum();
    out.metrics.push(Metric::new(
        "pla.parallel_speedup",
        serial_s / solo_pass_s,
        "ratio",
    ));

    // First half untraced, second half traced: their median latencies
    // give the tracing overhead.
    let half = opts.seconds / 2.0;
    let (plain, _) = serve(service, pool, clients, half, None);
    let plain_ms = absorb(&plain, out);
    ca_obs::counters::reset();
    let before = service.stats();
    let ((logs, wall_s), allocs) =
        alloc::counting(|| observed(|| serve(service, pool, clients, half, Some(rec.origin()))));
    let after = service.stats();
    let latency_ms = absorb(&logs, out);
    if latency_ms.is_empty() || plain_ms.is_empty() {
        return;
    }
    let jobs = latency_ms.len() as f64;
    out.metrics.extend(counter_metrics(allocs as f64, jobs));

    // The ledger of one pass over the pool: exact, whatever was served.
    let mut ledger = Costs::default();
    for j in pool {
        let c = &j.reference.ledger;
        ledger.flops += c.flops;
        ledger.horizontal_words += c.horizontal_words;
        ledger.vertical_words += c.vertical_words;
        ledger.supersteps += c.supersteps;
        ledger.peak_memory_words = ledger.peak_memory_words.max(c.peak_memory_words);
    }
    out.metrics.extend(ledger_metrics(&ledger));

    let layer = ServiceLayer {
        before,
        after,
        workers,
        wall_s,
        solo_s: logs.iter().map(|l| l.solo_s).sum(),
        latency_ms: &latency_ms,
    };
    // Stage times are means per job here: the jobs differ in size, so
    // a median over them would describe no job in particular.
    let per_job =
        |f: fn(&ClientLog) -> &[f64; 5], k: usize| logs.iter().map(|l| f(l)[k]).sum::<f64>() / jobs;
    let stage_ms: Vec<f64> = (0..STAGES.len())
        .map(|k| per_job(|l| &l.stage_s, k) * 1e3)
        .collect();
    let stage_flops: Vec<f64> = (0..STAGES.len())
        .map(|k| per_job(|l| &l.stage_flops, k))
        .collect();
    let solve_ms = layer.grew(|s| s.solve_us) / 1e3 / jobs;
    let unattributed_ms = solve_ms - stage_ms.iter().sum::<f64>();
    out.metrics.extend(stage_metrics(
        &stage_ms,
        &stage_ms.iter().map(|ms| ms / solve_ms).collect::<Vec<_>>(),
        unattributed_ms,
        &stage_flops,
        peaks.as_ref(),
    ));
    out.metrics
        .extend(defect_metrics(pool.iter().map(|j| &j.defects)));
    out.metrics.extend(service_metrics(Some(&layer)));
    out.metrics.push(Metric::new(
        "obs.trace_overhead_frac",
        median(&latency_ms) / median(&plain_ms) - 1.0,
        "ratio",
    ));
    eprintln!(
        "service: {} traced jobs, {} untraced jobs",
        latency_ms.len(),
        plain_ms.len()
    );
    for log in logs {
        rec.absorb(log.spans);
    }
}
