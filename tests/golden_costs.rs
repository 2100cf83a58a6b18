#![allow(clippy::needless_range_loop)]
//! Golden cost pins: the exact ledger values of a few fixed
//! configurations. The simulator is deterministic and costs are
//! data-independent, so these numbers are stable; any accounting change
//! (a collective's charge formula, a stage's structure) shows up here
//! as an exact diff and must be reviewed deliberately rather than
//! slipping into the experiment tables unnoticed.
//!
//! When an intentional accounting change lands, re-run with
//! `UPDATE_GOLDEN=1 cargo test --test golden_costs -- --nocapture`
//! to print the new values, then update the constants.

use ca_symm_eig::bsp::{Costs, Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(n: usize, p: usize, c: usize) -> Costs {
    let mut rng = StdRng::seed_from_u64(12345);
    let a = gen::random_symmetric(&mut rng, n);
    let m = Machine::new(MachineParams::new(p));
    let _ = try_symm_eigen_25d(&m, &EigenParams::new(p, c), &a).unwrap();
    m.report()
}

fn check(name: &str, got: Costs, want_w: u64, want_s: u64, want_f: u64) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!(
            "{name}: W = {}, S = {}, F = {}",
            got.horizontal_words, got.supersteps, got.flops
        );
        return;
    }
    assert_eq!(got.horizontal_words, want_w, "{name}: W drifted");
    assert_eq!(got.supersteps, want_s, "{name}: S drifted");
    assert_eq!(got.flops, want_f, "{name}: F drifted");
}

#[test]
fn golden_small_2d() {
    check("n=64 p=4 c=1", run(64, 4, 1), 22480, 50, 1136044);
}

#[test]
fn golden_medium_2d() {
    check("n=64 p=16 c=1", run(64, 16, 1), 26924, 333, 655068);
}

#[test]
fn golden_replicated() {
    // Re-pinned again for the divide-and-conquer finale: the sequential
    // eigensolve charge dropped from 6nb² + 30n² (QL rotations) to
    // 6nb² + 16n² (secular solves + row-carrier merge GEMMs), so F
    // fell by exactly 14n² on every configuration.
    // Earlier re-pin, when power-of-two band-width snapping was removed: the
    // initial band-width for p = 64 is now the paper's exact
    // ⌊64/log₂ 64⌋ = 10 rather than 8, which reshapes the reduction
    // chain (fewer, larger chases: S down, F up).
    check("n=64 p=64 c=4", run(64, 64, 4), 17882, 1304, 297004);
}
