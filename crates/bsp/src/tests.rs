use crate::{Machine, MachineParams};

fn machine(p: usize) -> Machine {
    Machine::new(MachineParams::new(p))
}

#[test]
fn fresh_machine_has_zero_costs() {
    let m = machine(4);
    let c = m.report();
    assert_eq!(c.flops, 0);
    assert_eq!(c.horizontal_words, 0);
    assert_eq!(c.vertical_words, 0);
    assert_eq!(c.supersteps, 0);
    assert_eq!(c.peak_memory_words, 0);
}

#[test]
fn flops_fold_takes_max_per_phase() {
    let m = machine(4);
    m.charge_flops(0, 10);
    m.charge_flops(1, 30);
    m.fence();
    m.charge_flops(0, 50);
    m.charge_flops(2, 20);
    m.fence();
    // Phase 1 max = 30, phase 2 max = 50.
    assert_eq!(m.report().flops, 80);
    assert_eq!(m.report().total_flops, 110);
}

#[test]
fn report_includes_unfenced_work() {
    let m = machine(2);
    m.charge_comm(1, 7);
    let c = m.report();
    assert_eq!(c.horizontal_words, 7);
    // A second report must not double count.
    assert_eq!(m.report().horizontal_words, 7);
}

#[test]
fn transfer_charges_both_endpoints() {
    let m = machine(3);
    m.charge_transfer(0, 2, 5);
    assert_eq!(m.comm_per_proc(), vec![5, 0, 5]);
    assert_eq!(m.report().total_volume_words, 10);
}

#[test]
fn self_transfer_is_free() {
    let m = machine(3);
    m.charge_transfer(1, 1, 100);
    assert_eq!(m.report().total_volume_words, 0);
}

#[test]
fn subgroup_steps_share_global_supersteps() {
    let m = machine(4);
    // Two disjoint groups each perform 3 subgroup exchanges "concurrently".
    m.step(&[0, 1], 3);
    m.step(&[2, 3], 3);
    m.fence();
    // 3 concurrent subgroup supersteps + the fence itself.
    assert_eq!(m.report().supersteps, 4);
}

#[test]
fn unbalanced_subgroup_steps_take_max() {
    let m = machine(4);
    m.step(&[0], 10);
    m.step(&[1, 2, 3], 2);
    m.fence();
    assert_eq!(m.report().supersteps, 11);
}

#[test]
fn memory_high_water_mark() {
    let m = machine(2);
    m.alloc(0, 100);
    m.alloc(0, 50);
    m.free(0, 120);
    m.alloc(1, 60);
    let c = m.report();
    assert_eq!(c.peak_memory_words, 150);
}

#[test]
fn snapshot_diffs_measure_regions() {
    let m = machine(2);
    m.charge_flops(0, 5);
    m.fence();
    let snap = m.snapshot();
    m.charge_flops(1, 11);
    m.charge_comm(0, 3);
    m.fence();
    let d = m.costs_since(&snap);
    assert_eq!(d.flops, 11);
    assert_eq!(d.horizontal_words, 3);
    assert_eq!(d.supersteps, 1);
}

#[test]
fn modeled_time_weights_costs() {
    let params = MachineParams::new(2).with_times(2.0, 3.0, 5.0, 7.0);
    let m = Machine::new(params);
    m.charge_flops(0, 1);
    m.charge_comm(0, 1);
    m.charge_vert(0, 1);
    m.fence();
    let t = m.report().time(m.params());
    assert_eq!(t.compute, 2.0);
    assert_eq!(t.horizontal, 3.0);
    assert_eq!(t.vertical, 5.0);
    assert_eq!(t.synchronization, 7.0);
    assert_eq!(t.total(), 17.0);
}

#[test]
fn fence_aligns_stragglers() {
    let m = machine(3);
    m.step(&[0], 5);
    m.fence();
    // All processors now sit at superstep 6; further subgroup work starts there.
    m.step(&[1], 1);
    m.fence();
    assert_eq!(m.report().supersteps, 8);
}
