//! Stage-time benchmark: per-stage wall-clock and model flop-rate of
//! the end-to-end solver at p = 4, c = 1.
//!
//! Stage wall-clock comes from [`StageCosts::wall_seconds`]; model flops
//! from the metered ledger. Each grid point reports the median of five
//! solves (by end-to-end wall time).
//!
//! Flags:
//!
//! * `--quick` — n ∈ {256} only (CI-sized; the full grid adds 512);
//! * `--out <path>` — also write the report as JSON
//!   (`cases[].total_ms`, `cases[].stages[].{ms, model_gflop, gflops}`);
//! * `--trace <path>` — after the benchmark, run one solve with stage
//!   tracing on (`ca_obs` level 1 + allocation metering) and write a
//!   chrome-trace JSON to `path` (load in `chrome://tracing` or
//!   Perfetto). The run cross-checks every stage span's wall time
//!   against the same stage's record
//!   ([`ca_eigen::solver::StageRecord::wall_secs`], within 1%) and exits
//!   nonzero on disagreement, then prints the per-stage summary table
//!   and counter totals.
//!
//! The GEMM tile instantiation the host's wide products run is printed
//! on stderr.

use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_eigen::params::EigenParams;
use ca_eigen::solver::{try_symm_eigen_25d, StageCosts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{ErrorKind, Write};
use std::time::Instant;

/// `println!`, except that a reader that closed stdout early
/// (`stage_times --quick | head -1`) has read all it wanted: the run
/// ends with exit 0 and no message, as `eigensolve`'s does.
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn emit(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("writing stdout: {e}");
    }
}

/// Counting allocator so traced runs report `alloc.count`/`alloc.bytes`
/// alongside the subsystem counters. Metering is off except inside the
/// `--trace` solve, so the benchmark sees stock `System` behaviour.
#[global_allocator]
static ALLOC: ca_obs::alloc::CountingAllocator = ca_obs::alloc::CountingAllocator;

/// Stage-name prefixes reported individually (matching
/// [`StageCosts::aggregate`] prefix semantics).
const STAGES: [&str; 4] = [
    "full-to-band",
    "band-to-band",
    "ca-sbr",
    "sequential eigensolve",
];

/// Run the solver `reps` times and return the median run (by end-to-end
/// wall time) with its stage breakdown.
fn run_case(n: usize, p: usize, reps: usize) -> (f64, StageCosts) {
    let mut rng = StdRng::seed_from_u64(4096 + n as u64);
    let spectrum = gen::linspace_spectrum(n, -1.0, 1.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);
    let mut runs: Vec<(f64, StageCosts)> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let (ev, stages) = try_symm_eigen_25d(&machine, &params, &a).unwrap();
            black_box(ev);
            (t0.elapsed().as_secs_f64(), stages)
        })
        .collect();
    runs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// One traced solve (`--trace`): stage spans, subsystem counters and
/// allocation metering on, chrome-trace JSON out, plus the
/// span-vs-`StageCosts` wall-agreement check (1%).
fn run_traced(trace_path: &str, n: usize, p: usize) {
    let mut rng = StdRng::seed_from_u64(4096 + n as u64);
    let spectrum = gen::linspace_spectrum(n, -1.0, 1.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);

    ca_obs::set_level(1);
    let _ = ca_obs::drain(); // discard anything recorded before this run
    let _ = ca_obs::take_dropped();
    ca_obs::counters::reset();
    ca_obs::alloc::take();
    ca_obs::alloc::set_metering(true);
    let (ev, stages) = try_symm_eigen_25d(&machine, &params, &a).unwrap();
    ca_obs::alloc::set_metering(false);
    ca_obs::set_level(0);
    black_box(ev);

    let events = ca_obs::drain();
    let dropped = ca_obs::take_dropped();
    let (alloc_count, alloc_bytes) = ca_obs::alloc::take();
    let mut counters = ca_obs::counters::snapshot();
    counters.push(("alloc.count", alloc_count));
    counters.push(("alloc.bytes", alloc_bytes));
    counters.sort_by_key(|(name, _)| *name);

    let json = ca_obs::export::chrome_trace(&events, &counters, dropped);
    std::fs::write(trace_path, json).unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
    outln!(
        "wrote {trace_path} ({} spans, {dropped} dropped) — load in chrome://tracing or Perfetto",
        events.len()
    );

    let summary = ca_obs::export::summarize(&events);
    emit(format_args!("{}", ca_obs::export::render_summary(&summary)));
    outln!("counters:");
    for (name, value) in &counters {
        outln!("  {name:<28} {value}");
    }

    // Cross-check: the trace's per-stage wall totals must agree with
    // the StageCosts the solver returned, grouped by exact stage name
    // (spans are opened under the same names by construction).
    let mut expected: Vec<(String, f64)> = Vec::new();
    for record in &stages.stages {
        match expected.iter_mut().find(|(name, _)| *name == record.name) {
            Some(e) => e.1 += record.wall_secs,
            None => expected.push((record.name.clone(), record.wall_secs)),
        }
    }
    let mut failed = false;
    for (name, wall) in &expected {
        let Some(span) = summary.iter().find(|s| &s.name == name) else {
            eprintln!("TRACE MISMATCH: no span named {name:?}");
            failed = true;
            continue;
        };
        let diff = (span.wall_secs - wall).abs();
        // 1% relative, with a 10 µs floor for stages too short to time.
        let tol = (0.01 * wall).max(10e-6);
        if diff > tol {
            eprintln!(
                "TRACE MISMATCH {name}: span {:.6} s vs stage {:.6} s (|Δ| {diff:.6} s > {tol:.6} s)",
                span.wall_secs, wall
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    outln!(
        "trace check: {} stage names agree with the StageCosts wall-clock within 1%",
        expected.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[256] } else { &[256, 512] };
    let (p, reps) = (4usize, 5usize);
    // Which GEMM tile the wide products run: it sets the rates below, and
    // stays out of stdout and the JSON so reports compare across hosts.
    let tiles = ca_dla::gemm::Tile::available();
    eprintln!(
        "gemm tile: {:?} (this host runs {tiles:?})",
        tiles.last().expect("never empty")
    );

    let mut out = String::from("{\n  \"cases\": [\n");
    for (ci, &n) in sizes.iter().enumerate() {
        let (total, stages) = run_case(n, p, reps);
        outln!("solver n={n} p={p}: {:.1} ms", total * 1e3);
        out.push_str(&format!(
            "    {{\"n\": {n}, \"p\": {p}, \"c\": 1, \"total_ms\": {:.3},\n     \"stages\": [\n",
            total * 1e3
        ));
        let present: Vec<&str> = STAGES
            .iter()
            .copied()
            .filter(|s| stages.count(s) > 0)
            .collect();
        for (si, stage) in present.iter().enumerate() {
            let wall = stages.wall_seconds(stage);
            let gflop = stages.aggregate(stage).total_flops as f64 / 1e9;
            let rate = gflop / wall.max(1e-12);
            outln!(
                "  {stage:<22} {:>8.1} ms  ({gflop:.3} model Gflop, {rate:.2} GF/s)",
                wall * 1e3
            );
            out.push_str(&format!(
                "      {{\"stage\": \"{stage}\", \"ms\": {:.3}, \"model_gflop\": {:.3}, \
                 \"gflops\": {:.3}}}{}\n",
                wall * 1e3,
                gflop,
                rate,
                if si + 1 == present.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if ci + 1 == sizes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Some(out_path) = flag_value(&args, "--out") {
        std::fs::write(out_path, &out).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
        outln!("wrote {out_path}");
    }

    if let Some(trace_path) = flag_value(&args, "--trace") {
        run_traced(trace_path, sizes[0], p);
    }
}
