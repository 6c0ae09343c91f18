//! `mc` — a hand-rolled bounded-interleaving model checker for the shard
//! exchange protocol.
//!
//! The container has no crates registry (no `loom`), so this module carries
//! a small CHESS-style stateless explorer: the program under test runs on
//! real OS threads, but every operation on a [`ModelSync`] synchronization
//! cell is a *scheduling point* — the thread announces the operation and
//! blocks until the controller grants it a turn. The controller enumerates
//! thread schedules by depth-first search with replay: each execution runs
//! the whole program under one decision sequence, then backtracks to the
//! deepest scheduling point with an unexplored alternative.
//!
//! # Memory model
//!
//! Sequential consistency plus a **TSO-lite store buffer**: a `Relaxed`
//! store may either commit to shared memory immediately or sit in the
//! storing thread's single-entry buffer (both branches are explored), where
//! it is visible to the owner (store-to-load forwarding) but to nobody
//! else. The buffer drains when the owner performs a `Release`-class store
//! or read-modify-write (flush *before* the operation — exactly the
//! happens-before edge `Release` promises), when a relaxed RMW touches the
//! buffered location, or at a nondeterministic *flush* transition the
//! scheduler may fire at any point. This is deliberately weaker than TSO in
//! one direction (a relaxed store can be delayed past a later relaxed store
//! to another location) because that is the reordering that makes dropped
//! `Release` annotations observable — the mutation class the shard-protocol
//! suite must catch.
//!
//! # Scope and limits
//!
//! * **Preemption bounding** ([`Config::preemptions`], default 2): an
//!   involuntary context switch — scheduling another thread while the
//!   current one could continue — consumes one unit of the budget;
//!   switches at blocking points are free, and store-buffer flushes are
//!   hardware transitions that never count. Empirically (CHESS) almost all
//!   ordering bugs surface within two preemptions; the bound is what keeps
//!   exhaustive exploration of multi-cycle protocol runs tractable.
//! * Loads are never reordered (no `Acquire`-load weakening is modeled);
//!   the model targets delayed-store bugs.
//! * Spin waits ([`SyncFamily::spin_until`]) park the thread until another
//!   thread commits a shared write, keeping every schedule finite; a state
//!   where no thread can run and no buffered store is pending is reported
//!   as a [`Failure::Deadlock`] — which is also how lost wakeups surface.
//! * Memory not behind the shim is assumed thread-local (each model thread
//!   owns its region exclusively); the scheduling points themselves impose
//!   sequential consistency on it, the same limitation loom documents.
//!
//! # Example
//!
//! ```
//! use aethereal_testkit::mc::{self, Config, ModelSync, Outcome};
//! use noc_sim::sync::{AtomicU64Cell, Ordering, SyncFamily};
//! use std::sync::Arc;
//!
//! // A racy non-atomic increment: load then store. The checker finds the
//! // lost update.
//! let outcome = mc::explore(&Config::default(), |exec| {
//!     type Cell = <ModelSync as SyncFamily>::AtomicU64;
//!     let x = Arc::new(Cell::new(0));
//!     for _ in 0..2 {
//!         let x = Arc::clone(&x);
//!         exec.spawn(move || {
//!             let v = x.load(Ordering::Relaxed);
//!             x.store(v + 1, Ordering::Relaxed);
//!         });
//!     }
//!     let x = Arc::clone(&x);
//!     exec.finale(move || assert_eq!(x.load(Ordering::Relaxed), 2));
//! });
//! assert!(matches!(outcome, Outcome::Fail { .. }));
//! ```

use noc_sim::sync::{AtomicU64Cell, Ordering, SyncFamily};
use std::cell::Cell as StdCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct Config {
    /// Involuntary-context-switch budget per execution (see module docs).
    pub preemptions: usize,
    /// Hard cap on explored executions; hitting it ends exploration with
    /// [`Outcome::Pass`] whose `complete` flag is `false`.
    pub max_executions: u64,
    /// Hard cap on scheduling steps in one execution; exceeding it is
    /// reported as a [`Failure::StepLimit`] (a livelock suspect).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemptions: 2,
            max_executions: 500_000,
            max_steps: 20_000,
        }
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub enum Outcome {
    /// Every explored schedule ran to completion with all assertions
    /// holding.
    Pass {
        /// Number of schedules executed.
        executions: u64,
        /// Whether the search space was exhausted (`false` when
        /// [`Config::max_executions`] stopped it early).
        complete: bool,
    },
    /// A schedule failed; exploration stopped at the first failure.
    Fail {
        /// What went wrong.
        failure: Failure,
        /// Schedules executed up to and including the failing one.
        executions: u64,
    },
}

impl Outcome {
    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            Outcome::Pass { .. } => None,
            Outcome::Fail { failure, .. } => Some(failure),
        }
    }
}

/// A failing schedule, with the step trace that reached it.
#[derive(Debug)]
pub enum Failure {
    /// No thread could make progress and no buffered store was pending.
    Deadlock {
        /// Granted steps up to the deadlock, formatted `T<i>: <op>`.
        trace: Vec<String>,
    },
    /// A model thread (or a finale closure) panicked.
    Panic {
        /// The panic message.
        message: String,
        /// Granted steps up to the panic.
        trace: Vec<String>,
    },
    /// One execution exceeded [`Config::max_steps`].
    StepLimit {
        /// The tail of the step trace.
        trace: Vec<String>,
    },
}

impl Failure {
    /// The schedule trace of the failing execution.
    pub fn trace(&self) -> &[String] {
        match self {
            Failure::Deadlock { trace }
            | Failure::Panic { trace, .. }
            | Failure::StepLimit { trace } => trace,
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime shared between the controller and the model threads.
// ---------------------------------------------------------------------------

/// One announced operation (a scheduling point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Load(usize),
    /// `.1` is true when the store is `Relaxed`-class (may buffer).
    Store(usize, bool),
    /// `.1` is true when the RMW is `Release`-class (flushes the buffer).
    Rmw(usize, bool),
    SpinCheck,
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Load(l) => format!("load m{l}"),
            Op::Store(l, true) => format!("store m{l} (relaxed)"),
            Op::Store(l, false) => format!("store m{l} (release)"),
            Op::Rmw(l, true) => format!("rmw m{l} (release)"),
            Op::Rmw(l, false) => format!("rmw m{l} (relaxed)"),
            Op::SpinCheck => "spin-check".to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Executing thread-local code (or its granted turn) — not settled.
    Running,
    /// At a scheduling point, waiting for a grant.
    Announced(Op),
    /// Parked in a spin wait; runnable again once `write_epoch > epoch`.
    BlockedSpin {
        epoch: u64,
    },
    Done,
}

/// The decision the controller attached to a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrantMode {
    /// Perform the announced operation (stores commit to memory).
    Proceed,
    /// Perform the announced relaxed store into the store buffer.
    Buffer,
}

struct Inner {
    mem: Vec<u64>,
    /// Per-thread single-entry store buffer: `(location, value)`.
    buffers: Vec<Option<(usize, u64)>>,
    states: Vec<TState>,
    /// Bumped on every write that reaches shared memory; spin waits park
    /// against it.
    write_epoch: u64,
    granted: Option<usize>,
    grant_mode: GrantMode,
    steps: usize,
    trace: Vec<String>,
    abort: bool,
    failure: Option<Failure>,
    /// `choices[k] = (chosen index, enabled count)` for backtracking.
    choices: Vec<(usize, usize)>,
}

struct Runtime {
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// Marker payload for panics used to unwind model threads on abort.
struct McAbort;

thread_local! {
    static CURRENT: StdCell<Option<Arc<Runtime>>> = const { StdCell::new(None) };
    static TID: StdCell<usize> = const { StdCell::new(usize::MAX) };
    /// Set while a thread executes its granted turn: nested cell operations
    /// (loads inside a spin predicate, the finale) access memory directly
    /// instead of announcing new scheduling points.
    static IN_TURN: StdCell<bool> = const { StdCell::new(false) };
}

fn current_runtime() -> Arc<Runtime> {
    CURRENT
        .with(|c| {
            let rt = c.take();
            let out = rt.clone();
            c.set(rt);
            out
        })
        .expect("ModelSync cells may only be used inside mc::explore")
}

impl Runtime {
    fn new() -> Self {
        Runtime {
            inner: Mutex::new(Inner {
                mem: Vec::new(),
                buffers: Vec::new(),
                states: Vec::new(),
                write_epoch: 0,
                granted: None,
                grant_mode: GrantMode::Proceed,
                steps: 0,
                trace: Vec::new(),
                abort: false,
                failure: None,
                choices: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn alloc(&self, v: u64) -> usize {
        let mut g = self.lock();
        g.mem.push(v);
        g.mem.len() - 1
    }

    /// Announce `op` and block until granted. Returns the grant mode.
    /// Panics with [`McAbort`] if the execution is being torn down.
    fn announce(&self, op: Op) -> GrantMode {
        let tid = TID.get();
        let mut g = self.lock();
        g.states[tid] = TState::Announced(op);
        self.cv.notify_all();
        loop {
            if g.abort {
                drop(g);
                std::panic::panic_any(McAbort);
            }
            if g.granted == Some(tid) {
                let mode = g.grant_mode;
                g.granted = None;
                g.states[tid] = TState::Running;
                return mode;
            }
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// End the granted turn (thread goes back to thread-local execution).
    fn finish_turn(&self) {
        let tid = TID.get();
        let mut g = self.lock();
        g.states[tid] = TState::Running;
        self.cv.notify_all();
    }

    /// Commit a write to shared memory (caller holds no turn bookkeeping).
    fn commit(g: &mut Inner, loc: usize, v: u64) {
        g.mem[loc] = v;
        g.write_epoch += 1;
    }

    fn flush_thread(g: &mut Inner, t: usize) {
        if let Some((loc, v)) = g.buffers[t].take() {
            Self::commit(g, loc, v);
        }
    }

    /// Read `loc` as thread `tid` sees it (store-to-load forwarding).
    fn read(&self, loc: usize) -> u64 {
        let g = self.lock();
        let tid = TID.get();
        match g.buffers.get(tid).copied().flatten() {
            Some((l, v)) if l == loc => v,
            _ => g.mem[loc],
        }
    }

    /// Apply a store as the granted thread.
    fn write(&self, loc: usize, v: u64, relaxed: bool, mode: GrantMode) {
        let tid = TID.get();
        let mut g = self.lock();
        if relaxed && mode == GrantMode::Buffer {
            // Draining an older buffered store to a *different* location
            // preserves program order within the buffer (capacity 1).
            if let Some((l, old)) = g.buffers[tid] {
                if l != loc {
                    Self::commit(&mut g, l, old);
                }
            }
            g.buffers[tid] = Some((loc, v));
        } else {
            if relaxed {
                // Commit-now branch: an older buffered store to the same
                // location is superseded (per-location coherence); one to
                // another location may legally stay behind.
                if let Some((l, _)) = g.buffers[tid] {
                    if l == loc {
                        g.buffers[tid] = None;
                    }
                }
            } else {
                // Release-class: everything before it becomes visible first.
                Self::flush_thread(&mut g, tid);
            }
            Self::commit(&mut g, loc, v);
        }
        self.cv.notify_all();
    }

    /// Apply a read-modify-write as the granted thread; returns the old
    /// value.
    fn rmw(&self, loc: usize, add: u64, release: bool) -> u64 {
        let tid = TID.get();
        let mut g = self.lock();
        if release {
            Self::flush_thread(&mut g, tid);
        } else if let Some((l, v)) = g.buffers[tid] {
            // An RMW is atomic on the latest value of its own location, so
            // a same-location buffered store must land first either way.
            if l == loc {
                g.buffers[tid] = None;
                Self::commit(&mut g, l, v);
            }
        }
        let old = g.mem[loc];
        Self::commit(&mut g, loc, old.wrapping_add(add));
        self.cv.notify_all();
        old
    }

    /// Park until another thread commits a shared write (spin wait).
    fn park_spin(&self) {
        let tid = TID.get();
        let mut g = self.lock();
        let epoch = g.write_epoch;
        g.states[tid] = TState::BlockedSpin { epoch };
        self.cv.notify_all();
        loop {
            if g.abort {
                drop(g);
                std::panic::panic_any(McAbort);
            }
            if g.write_epoch > epoch {
                g.states[tid] = TState::Running;
                return;
            }
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn mark_done(&self, panic_msg: Option<String>) {
        let tid = TID.get();
        let mut g = self.lock();
        g.states[tid] = TState::Done;
        if let Some(msg) = panic_msg {
            if g.failure.is_none() {
                let trace = g.trace.clone();
                g.failure = Some(Failure::Panic {
                    message: msg,
                    trace,
                });
            }
            g.abort = true;
        }
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// ModelSync: the SyncFamily implementation driven by the runtime.
// ---------------------------------------------------------------------------

/// The model [`SyncFamily`]: every operation on its cells is a scheduling
/// point of the exploring controller. Usable only inside [`explore`].
#[derive(Debug)]
pub struct ModelSync;

fn release_class(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// A model `u64` cell (a slot in the explorer's shared memory).
pub struct McAtomicU64 {
    rt: Arc<Runtime>,
    loc: usize,
}

impl McAtomicU64 {
    fn op_load(&self) -> u64 {
        if IN_TURN.get() {
            return self.rt.read(self.loc);
        }
        self.rt.announce(Op::Load(self.loc));
        self.rt.read(self.loc)
    }

    fn op_store(&self, v: u64, order: Ordering) {
        let relaxed = !release_class(order);
        if IN_TURN.get() {
            // Nested stores (none in the protocol under test) commit
            // immediately as part of the enclosing atomic step.
            self.rt.write(self.loc, v, false, GrantMode::Proceed);
            return;
        }
        let mode = self.rt.announce(Op::Store(self.loc, relaxed));
        self.rt.write(self.loc, v, relaxed, mode);
    }

    fn op_rmw(&self, add: u64, order: Ordering) -> u64 {
        let release = release_class(order);
        if IN_TURN.get() {
            return self.rt.rmw(self.loc, add, release);
        }
        self.rt.announce(Op::Rmw(self.loc, release));
        self.rt.rmw(self.loc, add, release)
    }
}

impl AtomicU64Cell for McAtomicU64 {
    fn new(v: u64) -> Self {
        let rt = current_runtime();
        let loc = rt.alloc(v);
        McAtomicU64 { rt, loc }
    }

    fn load(&self, _order: Ordering) -> u64 {
        self.op_load()
    }

    fn store(&self, v: u64, order: Ordering) {
        self.op_store(v, order);
    }

    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.op_rmw(v, order)
    }
}

impl SyncFamily for ModelSync {
    type AtomicU64 = McAtomicU64;

    fn spin_until(mut ready: impl FnMut() -> bool) {
        let rt = current_runtime();
        loop {
            rt.announce(Op::SpinCheck);
            let was = IN_TURN.replace(true);
            let ok = ready();
            IN_TURN.set(was);
            rt.finish_turn();
            if ok {
                return;
            }
            rt.park_spin();
        }
    }
}

// ---------------------------------------------------------------------------
// The explorer.
// ---------------------------------------------------------------------------

/// One execution's program registration handle: spawn model threads and
/// register finale checks from the program closure passed to [`explore`].
pub struct Exec {
    bodies: Vec<Box<dyn FnOnce() + Send>>,
    finales: Vec<Box<dyn FnOnce()>>,
}

impl Exec {
    /// Registers a model thread. Threads start together after the program
    /// closure returns.
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        self.bodies.push(Box::new(f));
    }

    /// Registers a check to run (on the controller, after every thread of
    /// the execution finished and all store buffers drained). A panic here
    /// fails the schedule like any model-thread panic.
    pub fn finale(&mut self, f: impl FnOnce() + 'static) {
        self.finales.push(Box::new(f));
    }
}

/// A candidate transition at one scheduling step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Grant thread `.0`'s announced op (mode [`GrantMode::Proceed`]).
    Proceed(usize),
    /// Grant thread `.0`'s announced relaxed store into its buffer.
    Buffer(usize),
    /// Drain thread `.0`'s buffered store to memory (hardware transition).
    Flush(usize),
}

/// Explores every schedule of `program` within `config`'s bounds.
///
/// `program` is invoked once per execution on the controller thread (with
/// the model runtime installed, so it may create [`ModelSync`] cells); it
/// registers the model threads via [`Exec::spawn`]. Exploration stops at
/// the first failing schedule.
pub fn explore(config: &Config, program: impl Fn(&mut Exec)) -> Outcome {
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0u64;
    loop {
        executions += 1;
        let (result, choices) = run_once(config, &program, &prefix);
        if let Some(failure) = result {
            return Outcome::Fail {
                failure,
                executions,
            };
        }
        // Backtrack: deepest step with an unexplored alternative.
        let mut next = None;
        for (k, &(chosen, enabled)) in choices.iter().enumerate().rev() {
            if chosen + 1 < enabled {
                next = Some(k);
                break;
            }
        }
        match next {
            None => {
                return Outcome::Pass {
                    executions,
                    complete: true,
                }
            }
            Some(k) => {
                prefix.clear();
                prefix.extend(choices[..k].iter().map(|&(c, _)| c));
                prefix.push(choices[k].0 + 1);
            }
        }
        if executions >= config.max_executions {
            return Outcome::Pass {
                executions,
                complete: false,
            };
        }
    }
}

/// Runs one execution under `prefix`; returns the failure (if any) and the
/// choice log for backtracking.
fn run_once(
    config: &Config,
    program: &impl Fn(&mut Exec),
    prefix: &[usize],
) -> (Option<Failure>, Vec<(usize, usize)>) {
    let rt = Arc::new(Runtime::new());
    CURRENT.set(Some(Arc::clone(&rt)));
    let mut exec = Exec {
        bodies: Vec::new(),
        finales: Vec::new(),
    };
    program(&mut exec);
    let n = exec.bodies.len();
    {
        let mut g = rt.lock();
        g.buffers = vec![None; n];
        g.states = vec![TState::Running; n];
    }
    let finales = std::mem::take(&mut exec.finales);
    let failure = std::thread::scope(|scope| {
        for (tid, body) in exec.bodies.into_iter().enumerate() {
            let rt = Arc::clone(&rt);
            scope.spawn(move || {
                CURRENT.set(Some(Arc::clone(&rt)));
                TID.set(tid);
                let result = catch_unwind(AssertUnwindSafe(body));
                let msg = match result {
                    Ok(()) => None,
                    Err(payload) if payload.downcast_ref::<McAbort>().is_some() => None,
                    Err(payload) => Some(panic_message(&payload)),
                };
                rt.mark_done(msg);
                CURRENT.set(None);
            });
        }
        control(config, &rt, prefix)
    });
    // Finales run with the runtime still installed and IN_TURN set so cell
    // reads bypass the (now finished) scheduler.
    let failure = if failure.is_none() {
        let mut g = rt.lock();
        for t in 0..n {
            Runtime::flush_thread(&mut g, t);
        }
        drop(g);
        let mut fail = None;
        IN_TURN.set(true);
        for f in finales {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let trace = rt.lock().trace.clone();
                fail = Some(Failure::Panic {
                    message: panic_message(&payload),
                    trace,
                });
                break;
            }
        }
        IN_TURN.set(false);
        fail
    } else {
        failure
    };
    let choices = std::mem::take(&mut rt.lock().choices);
    CURRENT.set(None);
    (failure, choices)
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The controller: repeatedly waits for every thread to settle, enumerates
/// the enabled transitions, picks one (replaying `prefix`, then first-in-
/// order), and applies it. Returns the failure that ended the execution,
/// if any.
fn control(config: &Config, rt: &Runtime, prefix: &[usize]) -> Option<Failure> {
    let mut last: Option<usize> = None;
    let mut preemptions = 0usize;
    loop {
        let mut g = rt.lock();
        // Wait until no thread is mid-transition: every thread is announced,
        // done, or parked against the *current* write epoch.
        loop {
            if g.failure.is_some() {
                g.abort = true;
                rt.cv.notify_all();
                return g.failure.take();
            }
            let settled = g.granted.is_none()
                && g.states.iter().all(|s| match *s {
                    TState::Running => false,
                    TState::Announced(_) | TState::Done => true,
                    TState::BlockedSpin { epoch } => epoch >= g.write_epoch,
                });
            if settled {
                break;
            }
            g = rt
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if g.states.iter().all(|&s| s == TState::Done) {
            return None;
        }
        // Enumerate enabled actions in canonical (deterministic) order:
        // announced threads first (continuation of `last` at the front so
        // the zero-preemption schedule is the natural one), then flushes.
        let mut actions: Vec<Action> = Vec::new();
        let push_thread = |actions: &mut Vec<Action>, t: usize, op: Op| {
            actions.push(Action::Proceed(t));
            if matches!(op, Op::Store(_, true)) {
                actions.push(Action::Buffer(t));
            }
        };
        if let Some(lt) = last {
            if let TState::Announced(op) = g.states[lt] {
                push_thread(&mut actions, lt, op);
            }
        }
        let last_enabled = !actions.is_empty();
        let budget_left = preemptions < config.preemptions;
        for (t, &s) in g.states.iter().enumerate() {
            if Some(t) == last {
                continue;
            }
            if let TState::Announced(op) = s {
                // Scheduling another thread while `last` could continue is
                // a preemption; prune when the budget is spent.
                if !last_enabled || budget_left {
                    push_thread(&mut actions, t, op);
                }
            }
        }
        for (t, b) in g.buffers.iter().enumerate() {
            if b.is_some() {
                actions.push(Action::Flush(t));
            }
        }
        if actions.is_empty() {
            // Parked spinners with nothing able to wake them: deadlock (the
            // shape a lost wakeup takes in this model).
            let mut trace = g.trace.clone();
            trace.push("deadlock: all runnable threads parked".to_string());
            g.abort = true;
            rt.cv.notify_all();
            return Some(Failure::Deadlock { trace });
        }
        let k = g.choices.len();
        let chosen = if k < prefix.len() { prefix[k] } else { 0 };
        debug_assert!(chosen < actions.len(), "replay diverged");
        g.choices.push((chosen, actions.len()));
        g.steps += 1;
        if g.steps > config.max_steps {
            let trace = g.trace.clone();
            g.abort = true;
            rt.cv.notify_all();
            return Some(Failure::StepLimit { trace });
        }
        match actions[chosen] {
            Action::Proceed(t) | Action::Buffer(t) => {
                if last_enabled && last != Some(t) {
                    preemptions += 1;
                }
                let op = match g.states[t] {
                    TState::Announced(op) => op,
                    _ => unreachable!("enabled action on unsettled thread"),
                };
                let mode = if matches!(actions[chosen], Action::Buffer(_)) {
                    GrantMode::Buffer
                } else {
                    GrantMode::Proceed
                };
                g.trace.push(format!(
                    "T{t}: {}{}",
                    op.describe(),
                    if mode == GrantMode::Buffer {
                        " [buffered]"
                    } else {
                        ""
                    }
                ));
                last = Some(t);
                g.grant_mode = mode;
                g.granted = Some(t);
                rt.cv.notify_all();
            }
            Action::Flush(t) => {
                let entry = g.buffers[t];
                if let Some((loc, v)) = entry {
                    g.buffers[t] = None;
                    Runtime::commit(&mut g, loc, v);
                    g.trace.push(format!("T{t}: flush m{loc}"));
                }
                rt.cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cell = <ModelSync as SyncFamily>::AtomicU64;

    #[test]
    fn atomic_increments_pass() {
        let outcome = explore(&Config::default(), |exec| {
            let x = Arc::new(Cell::new(0));
            for _ in 0..2 {
                let x = Arc::clone(&x);
                exec.spawn(move || {
                    x.fetch_add(1, Ordering::AcqRel);
                });
            }
            let x = Arc::clone(&x);
            exec.finale(move || assert_eq!(x.load(Ordering::Relaxed), 2));
        });
        assert!(
            matches!(outcome, Outcome::Pass { complete: true, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn lost_update_is_found() {
        let outcome = explore(&Config::default(), |exec| {
            let x = Arc::new(Cell::new(0));
            for _ in 0..2 {
                let x = Arc::clone(&x);
                exec.spawn(move || {
                    let v = x.load(Ordering::Acquire);
                    x.store(v + 1, Ordering::Release);
                });
            }
            let x = Arc::clone(&x);
            exec.finale(move || assert_eq!(x.load(Ordering::Relaxed), 2));
        });
        let Outcome::Fail { failure, .. } = outcome else {
            panic!("lost update not found: {outcome:?}");
        };
        assert!(matches!(failure, Failure::Panic { .. }), "{failure:?}");
    }

    #[test]
    fn store_buffering_reorders_relaxed_stores() {
        // Litmus: can a later relaxed store to y become visible while an
        // earlier relaxed store to x is still buffered? The reader thread
        // asserts it never observes (y == 1, x == 0); the model must find
        // the schedule where it does.
        let outcome = explore(&Config::default(), |exec| {
            let x = Arc::new(Cell::new(0));
            let y = Arc::new(Cell::new(0));
            {
                let (x, y) = (Arc::clone(&x), Arc::clone(&y));
                exec.spawn(move || {
                    x.store(1, Ordering::Relaxed);
                    y.store(1, Ordering::Relaxed);
                });
            }
            exec.spawn(move || {
                if y.load(Ordering::Acquire) == 1 {
                    assert_eq!(x.load(Ordering::Acquire), 1, "x write outran y");
                }
            });
        });
        assert!(
            matches!(outcome, Outcome::Fail { .. }),
            "store buffering not modeled: {outcome:?}"
        );
    }

    #[test]
    fn release_store_publishes_earlier_writes() {
        // Same litmus with a Release store to y: the buffered x store must
        // flush first, so the reader can never see (y == 1, x == 0).
        let outcome = explore(&Config::default(), |exec| {
            let x = Arc::new(Cell::new(0));
            let y = Arc::new(Cell::new(0));
            {
                let (x, y) = (Arc::clone(&x), Arc::clone(&y));
                exec.spawn(move || {
                    x.store(1, Ordering::Relaxed);
                    y.store(1, Ordering::Release);
                });
            }
            exec.spawn(move || {
                if y.load(Ordering::Acquire) == 1 {
                    assert_eq!(x.load(Ordering::Acquire), 1);
                }
            });
        });
        assert!(
            matches!(outcome, Outcome::Pass { complete: true, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn spin_wait_deadlock_is_reported() {
        let outcome = explore(&Config::default(), |exec| {
            let x = Arc::new(Cell::new(0));
            exec.spawn(move || {
                // Nobody ever stores 1: the spin can never finish.
                ModelSync::spin_until(|| x.load(Ordering::Acquire) == 1);
            });
        });
        let Outcome::Fail { failure, .. } = outcome else {
            panic!("deadlock not reported: {outcome:?}");
        };
        assert!(matches!(failure, Failure::Deadlock { .. }), "{failure:?}");
    }

    #[test]
    fn spin_wait_wakes_on_write() {
        let outcome = explore(&Config::default(), |exec| {
            let x = Arc::new(Cell::new(0));
            {
                let x = Arc::clone(&x);
                exec.spawn(move || {
                    ModelSync::spin_until(|| x.load(Ordering::Acquire) == 1);
                });
            }
            exec.spawn(move || {
                x.store(1, Ordering::Release);
            });
        });
        assert!(
            matches!(outcome, Outcome::Pass { complete: true, .. }),
            "{outcome:?}"
        );
    }
}
