//! Dependency-driven task-graph executor with superstep lookahead.
//!
//! The BSP executor ([`crate::exec`]) joins every worker at every
//! superstep: run that way, panel QR serializes against trailing
//! updates even when their operands are disjoint. This module is how
//! full→band runs instead. The driver expresses the reduction as a
//! [`TaskGraph`] — panel-QR, trailing-update and aggregate nodes with
//! explicit data dependencies, inserted in the algorithm's program
//! order — and the executor runs any task whose dependencies have
//! completed, regardless of which superstep the program order assigns
//! it to (depth-1 panel lookahead falls out naturally: panel `k+1`'s
//! first tasks become ready while panel `k`'s trailing updates are
//! still in flight). The chase stages (band→band, CA-SBR, Lang) are not
//! graphs: their chases are turns at one band, not independent
//! products, and they walk their plans with live charges.
//!
//! ## Deterministic charging (the ledger is schedule-independent)
//!
//! Task bodies do not touch the live F/W/Q/S ledger. Each body runs
//! under [`Machine::capture`], which redirects every `charge_*`,
//! `alloc`/`free` and `step` into a per-task [`ChargeLog`]. After all
//! tasks have completed, a *replay pass* applies the logs in task
//! **insertion order**, executing [`Machine::fence`] wherever the
//! driver placed a fence marker ([`TaskGraph::add_fence`]). The
//! replayed event stream — and therefore the folded per-phase maxima,
//! superstep counts and peak-memory high-water marks — is bitwise the
//! stream of the straight-line program (bodies in insertion order, a
//! live fence at every marker), no matter how execution interleaved.
//! `tests/dag_equivalence.rs` pins it.
//!
//! Because capture is thread-local, each body is additionally wrapped
//! in [`exec::with_forced_serial`]: nested `par_ranks`/`join` dispatch
//! stays on the body's thread, so no charge escapes its log. The pure
//! compute a body forks *below* the executor (GEMM row blocks, D&C
//! halves — `ca-dla` calls that charge nothing) still reaches the pool,
//! which at p = 4, where the graph is two tasks wide, is most of the
//! parallelism.
//!
//! ## Scheduling
//!
//! With a core budget of one (single hardware thread, forced-serial
//! dispatch, a batch-service worker with no cores to spare) or a
//! single-task graph, bodies run inline in insertion order — zero
//! scheduling overhead, and literally the straight-line program.
//! Otherwise the graph runs inside one `rayon::scope` of the
//! workspace's runtime: a task is `Scope::spawn`ed the moment its
//! in-degree reaches zero, so tasks and the pieces forked inside them
//! share the pool's one queue and an idle worker takes whichever
//! exists. The executor owns no
//! threads, no ready-queue and no condition variable; the scope keeps
//! at most `current_budget()` tasks of one graph in flight and holds
//! the rest back in readiness order. The thread that called
//! [`TaskGraph::run`] waits by running tasks itself.
//!
//! Tasks run concurrently but never *nested*: a thread waiting inside
//! a body (for the pieces of a GEMM it forked) runs pieces, not other
//! tasks. Bodies rely on it — several hold a [`TaskCell`]'s lock
//! across such a fork, and a sibling reading the same cell on that
//! very stack would block on a lock its own thread holds.
//!
//! Observability: every body runs inside a `dag.task` kernel span, and
//! the `dag.ready_queue_depth` counter records the high-water mark of
//! one graph's ready-but-unstarted tasks — the visible measure of how
//! much work lookahead exposes beyond one superstep's window.

use crate::exec;
use ca_bsp::{ChargeLog, Machine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Identifier of a task within one [`TaskGraph`] (its insertion index).
pub type TaskId = usize;

static READY_DEPTH: ca_obs::Counter = ca_obs::Counter::new("dag.ready_queue_depth");
static TASKS_RUN: ca_obs::Counter = ca_obs::Counter::new("dag.tasks_run");

/// A write-once slot passing data between tasks of a [`TaskGraph`].
///
/// The producer task calls [`TaskCell::set`]; consumer tasks declare a
/// dependency on the producer and read with [`TaskCell::with_ref`] or
/// [`TaskCell::take`]. The executor's in-degree counters provide the
/// happens-before edge; the mutex makes the handoff sound. Access is
/// exclusive, reads included: concurrent readers of one cell take
/// turns for as long as their closures run.
pub struct TaskCell<T>(Mutex<Option<T>>);

impl<T> TaskCell<T> {
    /// An empty cell.
    pub fn new() -> Self {
        TaskCell(Mutex::new(None))
    }

    /// Store the produced value (a task runs at most once, so a double
    /// set indicates a mis-built graph).
    pub fn set(&self, v: T) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        assert!(slot.is_none(), "TaskCell set twice");
        *slot = Some(v);
    }

    /// Take the value out (panics if the producer has not run).
    pub fn take(&self) -> T {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("TaskCell read before its producer ran")
    }

    /// Borrow the value in place.
    pub fn with_ref<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(slot.as_ref().expect("TaskCell read before its producer ran"))
    }

    /// Borrow the value mutably in place.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(slot.as_mut().expect("TaskCell read before its producer ran"))
    }
}

impl<T> Default for TaskCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

type Body<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Task<'env> {
    label: &'static str,
    deps: Vec<TaskId>,
    body: Mutex<Option<Body<'env>>>,
}

enum Item {
    Task(TaskId),
    Fence,
}

/// A dependency graph of charged task bodies plus the fence positions
/// of the straight-line schedule. Build with
/// [`TaskGraph::add_task`]/[`TaskGraph::add_fence`] in the algorithm's
/// program order, then [`TaskGraph::run`].
pub struct TaskGraph<'env> {
    machine: &'env Machine,
    tasks: Vec<Task<'env>>,
    schedule: Vec<Item>,
}

impl<'env> TaskGraph<'env> {
    /// An empty graph charging `machine`.
    pub fn new(machine: &'env Machine) -> Self {
        TaskGraph {
            machine,
            tasks: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Append a task. `deps` are ids of previously added tasks; the
    /// body may start as soon as all of them have completed. Insertion
    /// order must be the algorithm's program order — it is the inline
    /// execution order and the deterministic charge-replay order, and it
    /// is a topological order by construction (deps point backwards
    /// only).
    pub fn add_task(
        &mut self,
        label: &'static str,
        deps: &[TaskId],
        body: impl FnOnce() + Send + 'env,
    ) -> TaskId {
        let id = self.tasks.len();
        for &d in deps {
            assert!(d < id, "task dependency {d} does not precede task {id}");
        }
        self.tasks.push(Task {
            label,
            deps: deps.to_vec(),
            body: Mutex::new(Some(Box::new(body))),
        });
        self.schedule.push(Item::Task(id));
        id
    }

    /// Mark a superstep boundary of the straight-line schedule.
    /// Execution does **not** wait here — the marker only tells the
    /// replay pass where to fold the ledger ([`Machine::fence`]), so the
    /// per-phase maxima do not depend on the execution order.
    pub fn add_fence(&mut self) {
        self.schedule.push(Item::Fence);
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks have been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Execute every task (respecting dependencies), then replay the
    /// captured charge logs in insertion order with fences at the
    /// recorded positions.
    pub fn run(self) {
        let n = self.tasks.len();
        let logs: Vec<OnceLock<ChargeLog>> = (0..n).map(|_| OnceLock::new()).collect();
        let workers = if exec::serial_forced() {
            1
        } else {
            rayon::current_budget().min(n)
        };

        if workers <= 1 {
            for (id, task) in self.tasks.iter().enumerate() {
                let log = run_body(task);
                logs[id].set(log).expect("task ran twice");
            }
        } else {
            self.run_pooled(&logs);
            exec::mirror_rt_counters();
        }

        // Deterministic charging pass: insertion order, fences at the
        // markers.
        for item in &self.schedule {
            match item {
                Item::Task(id) => {
                    let log = logs[*id].get().expect("task never ran");
                    self.machine.replay(log);
                }
                Item::Fence => self.machine.fence(),
            }
        }
    }

    /// Execution on the shared pool: every task is spawned into one
    /// scope when its last dependency completes.
    fn run_pooled(&self, logs: &[OnceLock<ChargeLog>]) {
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); self.tasks.len()];
        for (id, task) in self.tasks.iter().enumerate() {
            for &d in &task.deps {
                dependents[d].push(id);
            }
        }
        let run = PooledRun {
            tasks: &self.tasks,
            logs,
            dependents,
            indegree: self
                .tasks
                .iter()
                .map(|t| AtomicUsize::new(t.deps.len()))
                .collect(),
            ready: AtomicUsize::new(0),
        };
        rayon::scope(|scope| {
            for (id, task) in self.tasks.iter().enumerate() {
                if task.deps.is_empty() {
                    run.spawn(scope, id);
                }
            }
        });
    }
}

/// Shared state of one pooled graph execution.
struct PooledRun<'a, 'env> {
    tasks: &'a [Task<'env>],
    logs: &'a [OnceLock<ChargeLog>],
    dependents: Vec<Vec<TaskId>>,
    /// Uncompleted dependencies per task.
    indegree: Vec<AtomicUsize>,
    /// Tasks spawned but not started (the `dag.ready_queue_depth` gauge).
    ready: AtomicUsize,
}

impl<'a> PooledRun<'a, '_> {
    /// Hand ready task `id` to the pool; on completion it releases its
    /// dependents the same way.
    fn spawn(&'a self, scope: &rayon::Scope<'a>, id: TaskId) {
        let depth = self.ready.fetch_add(1, Ordering::Relaxed) + 1;
        READY_DEPTH.record_max(depth as u64);
        scope.spawn(move |scope| {
            self.ready.fetch_sub(1, Ordering::Relaxed);
            let log = run_body(&self.tasks[id]);
            self.logs[id].set(log).expect("task ran twice");
            for &next in &self.dependents[id] {
                // `AcqRel`: the last decrement must see everything the
                // other dependencies wrote before their own decrements.
                if self.indegree[next].fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.spawn(scope, next);
                }
            }
        });
    }
}

/// Run one task body under a `dag.task` span with its charges captured
/// and nested dispatch pinned to this thread.
fn run_body(task: &Task<'_>) -> ChargeLog {
    let _span = ca_obs::kernel_span("dag.task");
    TASKS_RUN.add(1);
    let body = task
        .body
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_else(|| panic!("task {:?} executed twice", task.label));
    let ((), log) = Machine::capture(|| exec::with_forced_serial(body));
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_and_respects_dependencies() {
        let m = Machine::new(MachineParams::new(2));
        let order = Mutex::new(Vec::new());
        let mut g = TaskGraph::new(&m);
        let a = g.add_task("a", &[], || order.lock().unwrap().push("a"));
        let b = g.add_task("b", &[a], || order.lock().unwrap().push("b"));
        let _c = g.add_task("c", &[a, b], || order.lock().unwrap().push("c"));
        g.run();
        let seen = order.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        let pos = |x: &str| seen.iter().position(|&s| s == x).unwrap();
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn charges_replay_into_fence_phases_like_the_straight_line_program() {
        // Straight-line program: phase 1 charges (1000 on p0), fence, phase 2
        // charges (10 on p0, 2000 on p1), fence. Folded F must be
        // 1000 + 2000 regardless of execution interleaving.
        let inline = Machine::new(MachineParams::new(2));
        inline.charge_flops(0, 1000);
        inline.fence();
        inline.charge_flops(0, 10);
        inline.charge_flops(1, 2000);
        inline.fence();
        let want = inline.report();

        let m = Machine::new(MachineParams::new(2));
        let mut g = TaskGraph::new(&m);
        let t1 = g.add_task("phase1", &[], || m.charge_flops(0, 1000));
        g.add_fence();
        g.add_task("phase2a", &[t1], || m.charge_flops(0, 10));
        g.add_task("phase2b", &[], || m.charge_flops(1, 2000));
        g.add_fence();
        g.run();
        assert_eq!(m.report(), want);
    }

    #[test]
    fn task_cells_hand_values_downstream() {
        let m = Machine::new(MachineParams::new(1));
        let cell = TaskCell::new();
        let out = TaskCell::new();
        let mut g = TaskGraph::new(&m);
        let p = g.add_task("produce", &[], || cell.set(21usize));
        g.add_task("consume", &[p], || out.set(cell.take() * 2));
        g.run();
        assert_eq!(out.take(), 42);
    }

    #[test]
    fn wide_graphs_complete_under_contention() {
        let m = Machine::new(MachineParams::new(4));
        let count = AtomicUsize::new(0);
        let mut g = TaskGraph::new(&m);
        let roots: Vec<TaskId> = (0..8)
            .map(|_| {
                g.add_task("root", &[], || {
                    count.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for _ in 0..32 {
            g.add_task("leaf", &roots, || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        g.add_fence();
        g.run();
        assert_eq!(count.load(Ordering::Relaxed), 40);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependencies_are_rejected() {
        let m = Machine::new(MachineParams::new(1));
        let mut g = TaskGraph::new(&m);
        g.add_task("bad", &[0], || {});
    }
}
