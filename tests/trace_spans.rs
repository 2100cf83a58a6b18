//! Span-tree pin tests for the `ca_obs` tracing layer.
//!
//! One test (the global ring and trace level are process-wide, so the
//! phases share one `#[test]` instead of racing each other):
//!
//! * level 1: the solver emits exactly one stage span per
//!   [`StageCosts`] record, under the same name, and the spans'
//!   metered F/W/Q/S deltas sum to the machine ledger's totals;
//! * level 2: kernel-detail spans appear, and per thread every pair of
//!   spans is properly nested or disjoint (the guards are scoped, so
//!   intervals on one thread must form a tree);
//! * level 2, the finale: a solve that enters the sequential stage with
//!   a band wide enough for the block-reflector pass opens
//!   `finale.halve`, `finale.sweep` and `finale.tridiag` under
//!   `sequential eigensolve`, on the values and on the vectors path — the
//!   same band → tridiagonal function runs both, and each path's
//!   tridiagonal solve is one leg — and the three account for that
//!   stage's wall to within 5 %;
//! * level 2, full→band: every pseudocode line of Algorithm IV.1 opens
//!   its own span (`f2b.line5`, `f2b.qr`, `f2b.w`, `f2b.v1`,
//!   `f2b.append` per panel, `f2b.base` once) directly under
//!   `driver.full_to_band` on the driver's thread, and together they
//!   account for at least 95 % of it;
//! * level 2, inside line 7: rect-QR opens `rq.tsqr`, `rq.explicit_q`,
//!   `rq.reconstruct` (with `rc.lu`, `rc.triinv`, `rc.u`, `rc.t` inside
//!   it), `rq.split`, `rq.update` and `rq.merge` — disjoint pieces of the
//!   column recursion, on the driver's thread — and together they account for at
//!   least 90 % of `f2b.qr`, so a trace splits the panel QR without a
//!   patched build;
//! * the `bulge.chase_windows` counter counts every chase of the one
//!   banded kernel: over a solve it moves by the summed lengths of the
//!   plans its stage and leg names announce. No solve a debug build can
//!   afford runs all three chase stages (the finale's pass needs
//!   `n/p > 192`), so the n = 400 solves above cover the finale's pass
//!   and an (n, p, c) = (100, 8, 2) solve band→band and CA-SBR;
//! * `gemm.flops` counts `2mnk` of every product and `gemm.wide_flops`
//!   the part the 6×32 AVX-512 tile ran: a product 64 wide on it, one
//!   16 wide not (and neither on a host without AVX-512F).

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::bulge::chase_plan_iter;
use ca_symm_eig::dla::gemm::{matmul, Tile, Trans};
use ca_symm_eig::dla::{gen, Matrix};
use ca_symm_eig::eigen::full_to_band::try_full_to_band;
use ca_symm_eig::eigen::solver::StageCosts;
use ca_symm_eig::eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams};
use ca_symm_eig::obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn solve(n: usize, p: usize, seed: u64) -> (Machine, StageCosts) {
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::random_symmetric(&mut rng, n);
    let (_, stages) = try_symm_eigen_25d(&machine, &params, &a).unwrap();
    (machine, stages)
}

/// A counter's value so far (0 before it first fires).
fn counter(name: &str) -> u64 {
    obs::counters::snapshot()
        .into_iter()
        .find(|&(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Chases executed so far, by the kernel's own counter.
fn chase_windows() -> u64 {
    counter("bulge.chase_windows")
}

/// Length of the chase plan a stage or leg name announces as `…b→h…`.
fn plan_len(n: usize, name: &str) -> u64 {
    let (from, to) = name.split_once('→').expect("a b→h name");
    let digits = |s: &str| s.parse::<usize>().expect("a band-width");
    let b = digits(from.rsplit(|c: char| !c.is_ascii_digit()).next().unwrap());
    let h = digits(to.split(|c: char| !c.is_ascii_digit()).next().unwrap());
    chase_plan_iter(n, b, h).count() as u64
}

/// Per-thread nesting check: sweep the spans in start order and verify
/// each fits inside whatever span encloses it.
fn assert_intervals_nest(tid: u32, events: &[obs::Event]) {
    let mut spans: Vec<&obs::Event> = events.iter().collect();
    spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns)));
    let mut enclosing_ends: Vec<u64> = Vec::new();
    for e in spans {
        while enclosing_ends.last().is_some_and(|&end| e.start_ns >= end) {
            enclosing_ends.pop();
        }
        if let Some(&end) = enclosing_ends.last() {
            assert!(
                e.end_ns <= end,
                "tid {tid}: span {:?} [{}, {}] straddles the end ({end}) of its enclosing span",
                e.name(),
                e.start_ns,
                e.end_ns
            );
        }
        enclosing_ends.push(e.end_ns);
    }
}

#[test]
fn stage_spans_pin_names_costs_and_nesting() {
    // Phase 1 — level 1: stage spans only, 1:1 with StageCosts.
    obs::set_level(1);
    let _ = obs::drain();
    let _ = obs::take_dropped();
    let (machine, stages) = solve(64, 4, 42);
    obs::set_level(0);
    let events = obs::drain();
    assert_eq!(
        obs::take_dropped(),
        0,
        "stage-level trace must not overflow the ring"
    );

    let span_names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    let stage_names: Vec<&str> = stages.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        span_names, stage_names,
        "level 1 must emit exactly the StageCosts stages, in order, under the same names"
    );
    assert!(
        !events.iter().any(|e| {
            let n = e.name();
            n.starts_with("gemm.") || n.starts_with("qr.") || n.starts_with("driver.")
        }),
        "kernel-detail spans must stay inert at level 1"
    );

    // The spans' metered deltas must sum to the machine ledger —
    // tracing reads the same Costs the StageRecords carry.
    let ledger = machine.report();
    let sum = |f: fn(&obs::Event) -> u64| events.iter().map(f).sum::<u64>();
    assert_eq!(sum(|e| e.flops), stages.total().flops);
    assert_eq!(sum(|e| e.horizontal_words), ledger.horizontal_words);
    assert_eq!(sum(|e| e.vertical_words), ledger.vertical_words);
    assert_eq!(sum(|e| e.supersteps), ledger.supersteps);
    for ev in &events {
        assert!(
            ev.end_ns >= ev.start_ns,
            "span {:?} ends before it starts",
            ev.name()
        );
    }

    // Phase 2 — level 2: kernel spans appear and nest per thread.
    obs::set_level(2);
    let _ = obs::drain();
    let _ = obs::take_dropped();
    let (_, stages2) = solve(64, 4, 42);
    obs::set_level(0);
    let events2 = obs::drain();

    assert!(
        events2.iter().any(|e| e.name().starts_with("driver.")),
        "level 2 must record stage-driver spans"
    );
    assert!(
        events2.len() > stages2.stages.len(),
        "level 2 must record more than the stage spans"
    );
    assert!(
        events2.iter().any(|e| e.depth > 0),
        "kernel spans under a stage span must carry depth > 0"
    );

    let mut by_tid: BTreeMap<u32, Vec<obs::Event>> = BTreeMap::new();
    for ev in events2 {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    for (tid, evs) in &by_tid {
        assert_intervals_nest(*tid, evs);
    }

    // Phase 3 — the finale's legs. One processor keeps the band at
    // b₀ = n/2 = 200 all the way to the sequential stage: above the
    // width (192) from which `band_to_tridiagonal` takes one pass down
    // to its sweep band (64) first.
    for vectors in [false, true] {
        let machine = Machine::new(MachineParams::new(1));
        let params = EigenParams::new(1, 1);
        let a = gen::random_symmetric(&mut StdRng::seed_from_u64(43), 400);
        obs::set_level(2);
        let _ = obs::drain();
        let chases_before = chase_windows();
        if vectors {
            let _ = try_symm_eigen_25d_vectors(&machine, &params, &a).unwrap();
        } else {
            let _ = try_symm_eigen_25d(&machine, &params, &a).unwrap();
        }
        obs::set_level(0);
        let events = obs::drain();
        assert_eq!(
            obs::take_dropped(),
            0,
            "finale trace must not overflow the ring"
        );
        assert_eq!(
            chase_windows() - chases_before,
            plan_len(400, "finale.halve (200→64)"),
            "vectors = {vectors}: the finale's pass is the solve's only chase stage"
        );

        let wall = |e: &obs::Event| (e.end_ns - e.start_ns) as f64;
        let stage: Vec<&obs::Event> = events
            .iter()
            .filter(|e| e.name() == "sequential eigensolve")
            .collect();
        assert_eq!(stage.len(), 1, "one sequential stage per solve");
        let legs: Vec<&obs::Event> = events
            .iter()
            .filter(|e| e.name().starts_with("finale."))
            .collect();
        let names: Vec<&str> = legs.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "finale.halve (200→64)",
                "finale.sweep (64)",
                "finale.tridiag"
            ],
            "vectors = {vectors}"
        );
        for leg in &legs {
            assert!(
                leg.start_ns >= stage[0].start_ns && leg.end_ns <= stage[0].end_ns,
                "{} lies outside the sequential stage",
                leg.name()
            );
        }
        let (legs_ns, stage_ns) = (legs.iter().map(|e| wall(e)).sum::<f64>(), wall(stage[0]));
        assert!(
            (stage_ns - legs_ns).abs() <= 0.05 * stage_ns,
            "vectors = {vectors}: finale legs cover {legs_ns} ns of the stage's {stage_ns} ns"
        );
    }

    // Phase 4 — band→band and CA-SBR pass the same counter: a
    // replicated grid (c = 2) runs both, and enters the finale at a
    // band-width the sweep takes directly.
    let n = 100;
    let machine = Machine::new(MachineParams::new(8));
    let a = gen::random_symmetric(&mut StdRng::seed_from_u64(44), n);
    obs::set_level(1);
    let chases_before = chase_windows();
    let (_, stages) = try_symm_eigen_25d(&machine, &EigenParams::new(8, 2), &a).unwrap();
    obs::set_level(0);
    let _ = obs::drain();
    let chase_stages: Vec<&str> = stages
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .filter(|name| name.starts_with("band-to-band") || name.starts_with("ca-sbr"))
        .collect();
    assert!(
        chase_stages
            .iter()
            .any(|name| name.starts_with("band-to-band"))
            && chase_stages.iter().any(|name| name.starts_with("ca-sbr")),
        "the solve was meant to run both stages: {chase_stages:?}"
    );
    assert_eq!(
        chase_windows() - chases_before,
        chase_stages
            .iter()
            .map(|name| plan_len(n, name))
            .sum::<u64>(),
        "every chase of {chase_stages:?} passes the kernel's counter"
    );

    // Phase 4b — executed GEMM work: `gemm.flops` adds 2mnk per
    // product, `gemm.wide_flops` the part on the 6×32 tile, which runs a
    // product at least 32 columns wide on a host with AVX-512F.
    let x = Matrix::from_fn(64, 64, |i, j| (i * 3 + j) as f64);
    let narrow = Matrix::from_fn(64, 16, |i, j| (i + j) as f64);
    let (flops_before, wide_before) = (counter("gemm.flops"), counter("gemm.wide_flops"));
    obs::set_level(1);
    let _ = matmul(&x, Trans::N, &x, Trans::N);
    let _ = matmul(&x, Trans::N, &narrow, Trans::N);
    obs::set_level(0);
    let _ = obs::drain();
    assert_eq!(
        counter("gemm.flops") - flops_before,
        2 * 64 * 64 * (64 + 16)
    );
    let wide = Tile::available().contains(&Tile::Avx512);
    assert_eq!(
        counter("gemm.wide_flops") - wide_before,
        if wide { 2 * 64 * 64 * 64 } else { 0 },
        "only the 64-wide product runs the wide tile, and only on AVX-512F"
    );

    // Phase 5 — full→band's pseudocode lines. Eight panels on a
    // replicated grid, the last one ragged.
    let (n, b) = (100, 12);
    let machine = Machine::new(MachineParams::new(8));
    let a = gen::random_symmetric(&mut StdRng::seed_from_u64(45), n);
    obs::set_level(2);
    let _ = obs::drain();
    let _ = try_full_to_band(&machine, &EigenParams::new(8, 2), &a, b, None).unwrap();
    obs::set_level(0);
    let events = obs::drain();
    assert_eq!(
        obs::take_dropped(),
        0,
        "full→band trace must not overflow the ring"
    );

    let driver: Vec<&obs::Event> = events
        .iter()
        .filter(|e| e.name() == "driver.full_to_band")
        .collect();
    assert_eq!(driver.len(), 1, "one driver span per reduction");
    let driver = driver[0];
    let lines: Vec<&obs::Event> = events
        .iter()
        .filter(|e| e.name().starts_with("f2b."))
        .collect();
    let count = |name: &str| lines.iter().filter(|e| e.name() == name).count();
    let panels = n.div_ceil(b) - 1;
    assert_eq!(
        [
            "f2b.line5",
            "f2b.qr",
            "f2b.w",
            "f2b.v1",
            "f2b.append",
            "f2b.base"
        ]
        .map(count),
        [panels, panels, panels, panels, panels, 1],
        "one span per pseudocode line and panel, one base case"
    );
    assert_eq!(lines.len(), 5 * panels + 1, "no other f2b.* span");
    for line in &lines {
        assert!(
            line.tid == driver.tid
                && line.depth == driver.depth + 1
                && line.start_ns >= driver.start_ns
                && line.end_ns <= driver.end_ns,
            "{} is not a child of driver.full_to_band",
            line.name()
        );
    }
    let wall = |e: &obs::Event| (e.end_ns - e.start_ns) as f64;
    let (lines_ns, driver_ns) = (lines.iter().map(|e| wall(e)).sum::<f64>(), wall(driver));
    assert!(
        lines_ns >= 0.95 * driver_ns,
        "the line spans cover {lines_ns} ns of full→band's {driver_ns} ns"
    );
    assert!(
        !events.iter().any(|e| e.name() == "dag.task"),
        "there is no task graph to open a dag.task span"
    );

    // Phase 6 — inside line 7. The benchmark's `values_p4` shape in
    // small: b = n/2 puts the one 192 × 192 panel on two processors, where
    // it recurses on its columns twice before TSQR takes over, so every
    // piece of rect-QR runs.
    let (n, b) = (384, 192);
    let machine = Machine::new(MachineParams::new(4));
    let a = gen::random_symmetric(&mut StdRng::seed_from_u64(46), n);
    obs::set_level(2);
    let _ = obs::drain();
    let _ = try_full_to_band(&machine, &EigenParams::new(4, 1), &a, b, None).unwrap();
    obs::set_level(0);
    let events = obs::drain();
    assert_eq!(
        obs::take_dropped(),
        0,
        "rect-QR trace must not overflow the ring"
    );

    let qr: Vec<&obs::Event> = events.iter().filter(|e| e.name() == "f2b.qr").collect();
    assert!(!qr.is_empty());
    let inside = |e: &obs::Event, outer: &[&obs::Event]| {
        outer
            .iter()
            .any(|o| e.tid == o.tid && e.start_ns >= o.start_ns && e.end_ns <= o.end_ns)
    };
    let pieces: Vec<&obs::Event> = events
        .iter()
        .filter(|e| e.name().starts_with("rq."))
        .collect();
    for name in [
        "rq.tsqr",
        "rq.explicit_q",
        "rq.reconstruct",
        "rq.split",
        "rq.update",
        "rq.merge",
    ] {
        assert!(pieces.iter().any(|e| e.name() == name), "no {name} span");
    }
    assert!(
        pieces.iter().all(|e| inside(e, &qr)),
        "an rq.* span lies outside line 7 or off the driver's thread"
    );
    let reconstructs: Vec<&obs::Event> = pieces
        .iter()
        .copied()
        .filter(|e| e.name() == "rq.reconstruct")
        .collect();
    for name in ["rc.lu", "rc.triinv", "rc.u", "rc.t"] {
        let steps: Vec<&obs::Event> = events.iter().filter(|e| e.name() == name).collect();
        assert_eq!(
            steps.len(),
            reconstructs.len(),
            "one {name} per reconstruction"
        );
        assert!(
            steps.iter().all(|e| inside(e, &reconstructs)),
            "{name} outside rq.reconstruct"
        );
    }
    let (pieces_ns, qr_ns) = (
        pieces.iter().map(|e| wall(e)).sum::<f64>(),
        qr.iter().map(|e| wall(e)).sum::<f64>(),
    );
    // What is left is line 7's marshalling into and out of the 1D layout
    // (fresh pages, a few copies): a tenth of it at this size once the
    // kernels are optimised, 7 % at the benchmark's, under 1 % here.
    let floor = if cfg!(debug_assertions) { 0.90 } else { 0.80 };
    assert!(
        pieces_ns >= floor * qr_ns,
        "the rq.* spans cover {pieces_ns} ns of line 7's {qr_ns} ns"
    );
}
