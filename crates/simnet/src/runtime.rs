//! Deterministic cooperative runtime.
//!
//! Simulated processes are real OS threads, but *exactly one* of them runs at
//! any moment: the thread that holds the baton. Combined with a totally
//! ordered event queue (time, then scheduling instant, then insertion
//! sequence) and seeded RNGs, every run of a simulation is bit-for-bit
//! reproducible.
//!
//! The design mirrors classic conservative process-oriented simulators:
//!
//! * [`Scheduler::spawn`] creates a simulated process from a closure.
//! * Inside a process, [`crate::ctx`] functions (`now`, `sleep`, `park`) block
//!   the process in *simulated* time.
//! * Protocol code (packet delivery, retransmit timers) runs as scheduled
//!   closure events between task slices, never concurrently with a task.
//! * A [`Waker`] moves a parked task back to the run queue; wakes delivered to
//!   a running task are remembered (`unpark` semantics), so the standard
//!   `while !condition { park() }` loop is race-free.
//!
//! There is no scheduler thread: the baton moves by *direct handoff*
//! (DESIGN.md §5e). A task that parks, yields, sleeps or finishes runs the
//! scheduler loop on its own thread, dispatching due events until the loop
//! grants a slice. A grant back to the caller just returns; a grant to
//! another task opens that task's gate and parks the caller on its own. A
//! stop (idle, deadlock, time limit, panic) goes back to the thread in
//! [`Scheduler::run_until`]. Event code runs with the task context cleared
//! on whatever thread dispatches it, so [`ctx::in_task`] is false there.

use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::time::SimTime;

/// Host-side work counters, summed across all schedulers in the process.
/// Purely observational (benchmarks, tuning); they never affect simulation.
static HOST_SLICES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static HOST_EVENTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static HOST_SLICE_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static HOST_EVENT_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// (task slices granted, events dispatched) since process start — host-side
/// cost counters for benchmarking the scheduler itself.
pub fn host_work_counters() -> (u64, u64) {
    (
        HOST_SLICES.load(Ordering::Relaxed),
        HOST_EVENTS.load(Ordering::Relaxed),
    )
}

/// Host nanoseconds spent (in task slices — from each grant, including the
/// wake-up of the granted thread, to the task's next yield; dispatching
/// events) since process start. Splits the simulator's wall clock into its
/// two cost centers for the datapath benchmarks.
pub fn host_work_ns() -> (u64, u64) {
    (
        HOST_SLICE_NS.load(Ordering::Relaxed),
        HOST_EVENT_NS.load(Ordering::Relaxed),
    )
}

/// Park-reason histogram: how many times tasks actually parked (wake-token
/// misses only), keyed by the `ctx::park` reason string. Observational —
/// the profiling side of the slice counters: each entry is a task handoff,
/// the dominant host cost of the simulator on small-message workloads,
/// attributed to the wait that caused it.
static PARK_STATS: Mutex<Option<HashMap<&'static str, u64>>> = Mutex::new(None);

fn note_park(reason: &'static str) {
    let mut g = PARK_STATS.lock();
    *g.get_or_insert_with(HashMap::new)
        .entry(reason)
        .or_insert(0) += 1;
}

/// Snapshot of the park-reason histogram, sorted by descending count.
pub fn park_stats() -> Vec<(&'static str, u64)> {
    let g = PARK_STATS.lock();
    let mut v: Vec<_> = g
        .as_ref()
        .map(|m| m.iter().map(|(k, c)| (*k, *c)).collect())
        .unwrap_or_default();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    v
}

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// What a scheduled event does when it fires.
enum EventAction {
    /// Wake a parked task (used by `sleep`).
    WakeTask(TaskId),
    /// Run an arbitrary closure outside task context.
    Call(Box<dyn FnOnce() + Send>),
    /// Invoke a pre-registered recurring callback ([`SchedHandle::
    /// register_hook`]) with an argument. Unlike `Call`, the event itself
    /// carries no allocation — the hot packet-delivery path schedules one
    /// of these per in-flight packet instead of boxing a closure.
    Hook(usize, usize),
    /// Like `Hook`, but a bookkeeping entry rather than a simulated event:
    /// it replays a record at the position an elided event would have
    /// had, and is not counted as a dispatched event.
    Note(usize, usize),
}

/// Handle to a recurring callback registered with
/// [`SchedHandle::register_hook`]; pass it to
/// [`SchedHandle::call_hook_at`] to fire it without a per-event
/// allocation.
#[derive(Clone, Copy, Debug)]
pub struct HookId(usize);

/// One queued event, ordered by `(at, scheduled_at, seq)`. `scheduled_at`
/// is the instant the event was scheduled at — `now` for everything except
/// an event the world schedules ahead of time on behalf of an elided
/// intermediate event (hop fusion), which carries the instant the elided
/// event would have scheduled it at. Since `seq` grows with `now`, the key
/// orders ordinary events exactly as insertion sequence alone would.
struct EventEntry {
    at: SimTime,
    scheduled_at: SimTime,
    seq: u64,
    action: EventAction,
}

impl EventEntry {
    fn key(&self) -> (SimTime, SimTime, u64) {
        (self.at, self.scheduled_at, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    /// Waiting in the run queue.
    Runnable,
    /// Currently holding the baton.
    Running,
    /// Parked; waiting for a `Waker`.
    Blocked,
    Finished,
}

/// One thread's gate: the flag a task thread (or the thread in
/// [`Scheduler::run_until`]) waits on until another thread hands it the
/// baton.
///
/// The handoff is the hot path of the whole simulator — every park, wake,
/// yield and event-driven slice that switches tasks crosses one gate — so
/// it costs one store and one `unpark`. The waiter parks at once, without
/// spinning: the thread that opens a gate parks on its own right after, so
/// the host only ever has the woken thread to run. A spinning waiter would
/// instead take a core from the thread it waits for; on two cores a
/// 1,000-iteration spin before parking cost `rpc_storm` all of the gain of
/// the direct handoff. std's park token makes an open that lands before
/// the waiter parks safe: its park returns at once.
#[derive(Default)]
struct Baton {
    open: AtomicBool,
}

impl Baton {
    /// Hand the baton to `waiter`, the thread that waits on this gate.
    fn pass(&self, waiter: &Thread) {
        self.open.store(true, Ordering::Release);
        waiter.unpark();
    }

    /// Wait for the baton, then close the gate behind us.
    fn wait(&self) {
        while !self.open.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

struct TaskSlot {
    name: String,
    /// Daemon tasks (servers, pumps) do not keep the simulation alive: the
    /// run loop reports Idle when only daemons remain parked.
    daemon: bool,
    state: TaskState,
    /// Park/unpark token: a wake delivered while the task is not blocked.
    notified: bool,
    /// The task's gate and OS thread.
    baton: Arc<Baton>,
    thread: Thread,
    /// Taken when the task finishes, to be joined by the next baton holder.
    join_handle: Option<std::thread::JoinHandle<()>>,
    /// Tasks waiting for this one to finish.
    joiners: Vec<TaskId>,
    /// Human-readable reason the task is parked (deadlock diagnostics).
    blocked_on: &'static str,
}

struct SchedState {
    now: SimTime,
    seq: u64,
    /// Events dispatched by this scheduler (notes excluded).
    dispatched: u64,
    /// Slices granted by this scheduler, and how many of them woke a
    /// different OS thread than the one that granted them.
    slices: u64,
    switches: u64,
    /// When the running task's slice was granted (host clock).
    slice_start: Instant,
    next_task: u64,
    events: BinaryHeap<EventEntry>,
    runnable: VecDeque<TaskId>,
    tasks: HashMap<TaskId, TaskSlot>,
    /// First panic observed in a task or an event; stops the run and is
    /// resumed by `run_until`.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Time limit of the current `run_until`, and why its loop stopped.
    limit: SimTime,
    outcome: Option<RunOutcome>,
    /// The thread waiting in `run_until` on the driver gate.
    driver: Option<Thread>,
    /// Threads of finished tasks, joined by the next baton holder.
    exited: Vec<std::thread::JoinHandle<()>>,
}

impl SchedState {
    /// Wake `tid` per unpark semantics.
    fn wake(&mut self, tid: TaskId) {
        let Some(slot) = self.tasks.get_mut(&tid) else {
            return;
        };
        match slot.state {
            TaskState::Blocked => {
                slot.state = TaskState::Runnable;
                slot.notified = false;
                self.runnable.push_back(tid);
            }
            TaskState::Runnable | TaskState::Running => slot.notified = true,
            TaskState::Finished => {}
        }
    }

    /// The running task is giving up the baton: close its slice's clock.
    fn end_slice(&self) {
        let ns = self.slice_start.elapsed().as_nanos() as u64;
        HOST_SLICE_NS.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A registered recurring callback; the slot is `None` while it runs.
type HookSlot = Option<Box<dyn FnMut(usize) + Send>>;

/// Shared core of the scheduler; cheap to clone via [`SchedHandle`].
pub struct SchedCore {
    state: Mutex<SchedState>,
    /// Recurring callbacks fired by `EventAction::Hook` events. Kept
    /// outside `state` so a running hook can schedule further events; the
    /// slot is taken for the duration of the call (hooks never re-enter
    /// themselves — events only fire from the scheduler loop).
    hooks: Mutex<Vec<HookSlot>>,
    /// Gate of the thread waiting in `run_until`.
    driver_gate: Baton,
}

/// A cloneable handle to the scheduler, used to schedule events and wake
/// tasks from protocol code or from other tasks.
#[derive(Clone)]
pub struct SchedHandle {
    core: Arc<SchedCore>,
}

/// Handle used to wake one parked task. Semantics match
/// `std::thread::Thread::unpark`: waking a task that is not parked makes its
/// next park return immediately.
#[derive(Clone)]
pub struct Waker {
    handle: SchedHandle,
    tid: TaskId,
}

impl Waker {
    /// Wake the target task (move it to the run queue, or set its token).
    pub fn wake(&self) {
        self.handle.wake_task(self.tid);
    }

    /// The task this waker targets.
    pub fn task(&self) -> TaskId {
        self.tid
    }
}

/// Outcome of driving the simulation.
#[derive(Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events and no runnable or blocked tasks remain.
    Idle,
    /// The time limit passed to `run_until` was reached.
    TimeLimit,
    /// No events or runnable tasks remain but some tasks are still parked.
    /// Contains `(task name, blocked_on reason)` for each parked task.
    Deadlock(Vec<(String, &'static str)>),
}

/// A slice granted by the scheduler loop: the task's id, gate and thread.
/// The loop returns `None` instead when the run stops; the state's
/// `outcome` (or `panic`) says why.
type Grant = (TaskId, Arc<Baton>, Thread);

/// The calling thread's task: set while a task body runs, cleared while
/// its thread dispatches events.
struct TaskCtx {
    handle: SchedHandle,
    tid: TaskId,
    baton: Arc<Baton>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<TaskCtx>> =
        const { std::cell::RefCell::new(None) };
}

/// The scheduler: owns the event queue and the task table and drives
/// simulated time forward. Create one per simulation via
/// [`Scheduler::new`], usually through [`crate::Sim`].
pub struct Scheduler {
    core: Arc<SchedCore>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            core: Arc::new(SchedCore {
                state: Mutex::new(SchedState {
                    now: SimTime::ZERO,
                    seq: 0,
                    dispatched: 0,
                    slices: 0,
                    switches: 0,
                    slice_start: Instant::now(),
                    next_task: 0,
                    events: BinaryHeap::new(),
                    runnable: VecDeque::new(),
                    tasks: HashMap::new(),
                    panic: None,
                    limit: SimTime::MAX,
                    outcome: None,
                    driver: None,
                    exited: Vec::new(),
                }),
                hooks: Mutex::new(Vec::new()),
                driver_gate: Baton::default(),
            }),
        }
    }

    /// A cloneable handle for scheduling and waking.
    pub fn handle(&self) -> SchedHandle {
        SchedHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Spawn a simulated process. It becomes runnable immediately (at the
    /// current simulated time) and runs when the scheduler reaches it.
    pub fn spawn<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.handle().spawn(name, f)
    }

    /// Spawn a daemon process (see [`SchedHandle::spawn_daemon`]).
    pub fn spawn_daemon<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.handle().spawn_daemon(name, f)
    }

    /// Drive the simulation until it is idle, a deadlock is detected, or
    /// simulated time would exceed `limit`. The caller runs the scheduler
    /// loop up to its first grant, then waits for whichever thread finds
    /// the stop; the threads of tasks that finished are joined by then.
    pub fn run_until(&self, limit: SimTime) -> RunOutcome {
        let h = self.handle();
        {
            let mut st = self.core.state.lock();
            st.limit = limit;
            st.driver = Some(std::thread::current());
        }
        let next = h.schedule(None);
        if next.is_some() {
            h.pass(next);
            self.core.driver_gate.wait();
            h.reap();
        }
        let mut st = self.core.state.lock();
        if let Some(p) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(p);
        }
        st.outcome.take().expect("a stop has an outcome")
    }

    /// Drive until idle; panic with diagnostics if parked tasks remain.
    pub fn run(&self) -> RunOutcome {
        let out = self.run_until(SimTime::MAX);
        if let RunOutcome::Deadlock(ref blocked) = out {
            panic!("simulation deadlock; parked tasks: {blocked:?}");
        }
        out
    }

    /// Drive for at most `d` of simulated time (from the current instant).
    pub fn run_for(&self, d: Duration) -> RunOutcome {
        let limit = self.now() + d;
        self.run_until(limit)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }
}

impl SchedHandle {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }

    /// Events this scheduler has dispatched so far: wakes, calls and
    /// hooks, not notes. Unlike the process-global [`host_work_counters`],
    /// it counts one simulation only.
    pub fn events_dispatched(&self) -> u64 {
        self.core.state.lock().dispatched
    }

    /// Task slices this scheduler has granted so far, one per grant,
    /// including a grant back to the task that just yielded.
    pub fn slices_granted(&self) -> u64 {
        self.core.state.lock().slices
    }

    /// Grants this scheduler has made that woke a different OS thread:
    /// the host-side cost of the slices, since a grant back to the
    /// yielding task costs no thread switch.
    pub fn thread_switches(&self) -> u64 {
        self.core.state.lock().switches
    }

    /// The scheduler loop, run by whichever thread holds the baton: grant
    /// the next runnable task, else dispatch the next due event, until a
    /// task is granted (a thread switch unless it is `me`) or the run
    /// stops. A panic in event code stops the run, like a task's.
    fn schedule(&self, me: Option<TaskId>) -> Option<Grant> {
        std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            let action = {
                let mut st = self.core.state.lock();
                if st.panic.is_some() {
                    return None;
                }
                if let Some(tid) = st.runnable.pop_front() {
                    st.slices += 1;
                    st.switches += u64::from(me != Some(tid));
                    st.slice_start = Instant::now();
                    HOST_SLICES.fetch_add(1, Ordering::Relaxed);
                    let slot = st.tasks.get_mut(&tid).expect("runnable task exists");
                    slot.state = TaskState::Running;
                    slot.blocked_on = "";
                    return Some((tid, Arc::clone(&slot.baton), slot.thread.clone()));
                }
                match st.events.peek() {
                    None => {
                        let stuck: Vec<(String, &'static str)> = st
                            .tasks
                            .values()
                            .filter(|t| t.state == TaskState::Blocked && !t.daemon)
                            .map(|t| (t.name.clone(), t.blocked_on))
                            .collect();
                        st.outcome = Some(if stuck.is_empty() {
                            RunOutcome::Idle
                        } else {
                            RunOutcome::Deadlock(stuck)
                        });
                        return None;
                    }
                    Some(ev) if ev.at > st.limit => {
                        st.outcome = Some(RunOutcome::TimeLimit);
                        return None;
                    }
                    Some(_) => {
                        let ev = st.events.pop().unwrap();
                        debug_assert!(ev.at >= st.now, "time went backwards");
                        st.now = ev.at;
                        if !matches!(ev.action, EventAction::Note(..)) {
                            st.dispatched += 1;
                        }
                        ev.action
                    }
                }
            };
            self.dispatch(action);
        }))
        .unwrap_or_else(|p| {
            self.core.state.lock().panic.get_or_insert(p);
            None
        })
    }

    fn dispatch(&self, action: EventAction) {
        if let EventAction::Note(i, arg) = action {
            self.call_hook(i, arg);
            return;
        }
        HOST_EVENTS.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        match action {
            EventAction::WakeTask(tid) => self.wake_task(tid),
            EventAction::Call(f) => f(),
            EventAction::Hook(i, arg) => self.call_hook(i, arg),
            EventAction::Note(..) => unreachable!("notes are replayed above"),
        }
        HOST_EVENT_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn call_hook(&self, i: usize, arg: usize) {
        let mut f = self.core.hooks.lock()[i].take().expect("hook in use");
        f(arg);
        self.core.hooks.lock()[i] = Some(f);
    }

    /// Hand the baton to where the loop sent it: open the granted task's
    /// gate or, on a stop, the driver's.
    fn pass(&self, next: Option<Grant>) {
        match next {
            Some((_, baton, thread)) => baton.pass(&thread),
            None => {
                let driver = self.core.state.lock().driver.clone();
                self.core.driver_gate.pass(&driver.expect("a run is on"));
            }
        }
    }

    /// Join the threads of tasks that finished since the last holder of
    /// the baton looked. Each has handed the baton on as its last act, so
    /// the join waits at most for its thread to exit.
    fn reap(&self) {
        let exited = std::mem::take(&mut self.core.state.lock().exited);
        for jh in exited {
            let _ = jh.join();
        }
    }

    /// The calling task `tid` finished (with the panic it raised, if any):
    /// wake its joiners and queue its thread to be joined.
    fn finish(&self, tid: TaskId, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = self.core.state.lock();
        st.end_slice();
        st.panic = st.panic.take().or(panic);
        let slot = st.tasks.get_mut(&tid).expect("finished task exists");
        slot.state = TaskState::Finished;
        let joiners = std::mem::take(&mut slot.joiners);
        let jh = slot.join_handle.take().expect("task thread joined once");
        st.exited.push(jh);
        for j in joiners {
            st.wake(j);
        }
    }

    /// Queue `action` at `at` (clamped to be no earlier than now), ordered
    /// as if scheduled at `scheduled_at` (`None`: now).
    fn push(&self, at: SimTime, scheduled_at: Option<SimTime>, action: EventAction) {
        let mut st = self.core.state.lock();
        let at = at.max(st.now);
        let scheduled_at = scheduled_at.unwrap_or(st.now);
        debug_assert!(
            st.now <= scheduled_at && scheduled_at <= at,
            "event scheduled as of {scheduled_at:?} for {at:?} at {:?}",
            st.now
        );
        let seq = st.seq;
        st.seq += 1;
        st.events.push(EventEntry {
            at,
            scheduled_at,
            seq,
            action,
        });
    }

    /// Schedule `f` to run outside task context at absolute time `at`
    /// (clamped to be no earlier than now).
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + Send + 'static) {
        self.push(at, None, EventAction::Call(Box::new(f)));
    }

    /// Schedule `f` to run after `d` of simulated time.
    pub fn call_after(&self, d: Duration, f: impl FnOnce() + Send + 'static) {
        let now = self.now();
        self.call_at(now + d, f);
    }

    /// Register a recurring callback and get a handle for scheduling it.
    /// The callback stays registered for the scheduler's lifetime; each
    /// firing passes it the argument it was scheduled with.
    pub fn register_hook(&self, f: impl FnMut(usize) + Send + 'static) -> HookId {
        let mut hooks = self.core.hooks.lock();
        hooks.push(Some(Box::new(f)));
        HookId(hooks.len() - 1)
    }

    /// Schedule a registered hook to fire with `arg` at absolute time `at`
    /// (clamped to be no earlier than now). Allocation-free apart from
    /// amortized event-heap growth. The event is ordered as if it had been
    /// scheduled at `scheduled_at` (≥ now; `None`: now), so ties with other
    /// events at `at` break by scheduling instant, then schedule order.
    pub fn call_hook_at(
        &self,
        at: SimTime,
        scheduled_at: Option<SimTime>,
        hook: HookId,
        arg: usize,
    ) {
        self.push(at, scheduled_at, EventAction::Hook(hook.0, arg));
    }

    /// Like [`call_hook_at`](Self::call_hook_at), but the firing is a note,
    /// not an event: it takes its place in the event order (and advances
    /// the clock to `at`) yet is not counted by [`events_dispatched`] or
    /// the host work counters. The world uses notes to replay tracer
    /// records of hops it forwarded without an event.
    ///
    /// [`events_dispatched`]: Self::events_dispatched
    pub(crate) fn note_hook_at(
        &self,
        at: SimTime,
        scheduled_at: SimTime,
        hook: HookId,
        arg: usize,
    ) {
        self.push(at, Some(scheduled_at), EventAction::Note(hook.0, arg));
    }

    /// Wake `tid` per unpark semantics.
    pub fn wake_task(&self, tid: TaskId) {
        self.core.state.lock().wake(tid);
    }

    /// A waker for the given task.
    pub fn waker(&self, tid: TaskId) -> Waker {
        Waker {
            handle: self.clone(),
            tid,
        }
    }

    /// Spawn a simulated process (see [`Scheduler::spawn`]).
    pub fn spawn<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_inner(name.into(), false, f)
    }

    /// Spawn a daemon process: a server or pump loop that may stay parked
    /// forever without counting as a deadlock or keeping the run alive.
    pub fn spawn_daemon<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_inner(name.into(), true, f)
    }

    fn spawn_inner<F, T>(&self, name: String, daemon: bool, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let baton = Arc::new(Baton::default());
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let tid = {
            let mut st = self.core.state.lock();
            let tid = TaskId(st.next_task);
            st.next_task += 1;
            tid
        };
        let thread = {
            let task = TaskCtx {
                handle: self.clone(),
                tid,
                baton: Arc::clone(&baton),
            };
            let result = Arc::clone(&result);
            std::thread::Builder::new()
                .name(format!("sim:{name}"))
                .spawn(move || {
                    task.baton.wait();
                    task.handle.reap();
                    let handle = task.handle.clone();
                    CURRENT.with(|c| *c.borrow_mut() = Some(task));
                    let out = std::panic::catch_unwind(AssertUnwindSafe(f));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    let panic = out.map(|v| *result.lock() = Some(v)).err();
                    // Hand the baton on as this thread's last act; the next
                    // holder joins it.
                    handle.finish(tid, panic);
                    let next = handle.schedule(None);
                    handle.pass(next);
                })
                .expect("spawn sim task thread")
        };
        {
            let mut st = self.core.state.lock();
            st.tasks.insert(
                tid,
                TaskSlot {
                    name,
                    daemon,
                    state: TaskState::Runnable,
                    notified: false,
                    baton,
                    thread: thread.thread().clone(),
                    join_handle: Some(thread),
                    joiners: Vec::new(),
                    blocked_on: "",
                },
            );
            st.runnable.push_back(tid);
        }
        JoinHandle {
            handle: self.clone(),
            tid,
            result,
        }
    }
}

/// Handle to a spawned simulated process; `join` blocks the *calling task*
/// in simulated time until the target finishes.
pub struct JoinHandle<T> {
    handle: SchedHandle,
    tid: TaskId,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id.
    pub fn task(&self) -> TaskId {
        self.tid
    }

    /// Has the task finished?
    pub fn is_finished(&self) -> bool {
        let st = self.handle.core.state.lock();
        st.tasks
            .get(&self.tid)
            .map(|t| t.state == TaskState::Finished)
            .unwrap_or(true)
    }

    /// Block the calling simulated task until the target finishes, then
    /// return its result. Must be called from within a simulated task.
    pub fn join(self) -> T {
        loop {
            {
                let mut st = self.handle.core.state.lock();
                let done = st
                    .tasks
                    .get(&self.tid)
                    .map(|t| t.state == TaskState::Finished)
                    .unwrap_or(true);
                if done {
                    break;
                }
                let me = ctx::current_task();
                st.tasks.get_mut(&self.tid).unwrap().joiners.push(me);
            }
            ctx::park("join");
        }
        self.result.lock().take().expect("joined task result")
    }
}

/// Task-side context functions. Valid only on threads spawned through the
/// scheduler; calling them elsewhere panics.
pub mod ctx {
    use super::*;

    fn with_current<R>(f: impl FnOnce(&SchedHandle, TaskId) -> R) -> R {
        CURRENT.with(|c| {
            let b = c.borrow();
            let task = b.as_ref().expect("not inside a simulated task");
            f(&task.handle, task.tid)
        })
    }

    /// Is the calling thread running a simulated task? False in event
    /// code, including events dispatched on a task's thread.
    pub fn in_task() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// The calling task's id.
    pub fn current_task() -> TaskId {
        with_current(|_, tid| tid)
    }

    /// Scheduler handle of the calling task.
    pub fn handle() -> SchedHandle {
        with_current(|h, _| h.clone())
    }

    /// Current simulated time.
    pub fn now() -> SimTime {
        with_current(|h, _| h.now())
    }

    /// A waker targeting the calling task.
    pub fn waker() -> Waker {
        with_current(|h, tid| h.waker(tid))
    }

    /// End the calling task's slice (its state already says why) and run
    /// the scheduler loop on this thread until the baton comes back to it.
    fn hand_off() {
        // Events dispatched here run outside task context.
        let task = CURRENT
            .with(|c| c.borrow_mut().take())
            .expect("not inside a simulated task");
        match task.handle.schedule(Some(task.tid)) {
            Some((tid, ..)) if tid == task.tid => {}
            next => {
                task.handle.pass(next);
                task.baton.wait();
                task.handle.reap();
            }
        }
        CURRENT.with(|c| *c.borrow_mut() = Some(task));
    }

    /// Park the calling task until woken. `reason` appears in deadlock
    /// diagnostics. Consumes a pending wake token if present.
    pub fn park(reason: &'static str) {
        let parked = with_current(|h, tid| {
            let mut st = h.core.state.lock();
            let slot = st.tasks.get_mut(&tid).expect("current task slot");
            if slot.notified {
                slot.notified = false;
                return false;
            }
            slot.state = TaskState::Blocked;
            slot.blocked_on = reason;
            st.end_slice();
            true
        });
        if parked {
            super::note_park(reason);
            hand_off();
        }
    }

    /// Yield the baton but stay runnable (cooperative yield at the same
    /// simulated instant).
    pub fn yield_now() {
        with_current(|h, tid| {
            let mut st = h.core.state.lock();
            st.tasks.get_mut(&tid).expect("current task slot").state = TaskState::Runnable;
            st.runnable.push_back(tid);
            st.end_slice();
        });
        hand_off();
    }

    /// Sleep for `d` of simulated time.
    pub fn sleep(d: Duration) {
        if d.is_zero() {
            yield_now();
            return;
        }
        let h = handle();
        let at = h.now() + d;
        h.push(at, None, EventAction::WakeTask(current_task()));
        // A stray wake token could end the sleep early; loop on the clock.
        loop {
            park("sleep");
            if h.now() >= at {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tasks_run_in_spawn_order_and_time_advances() {
        let sched = Scheduler::new();
        let log: Arc<Mutex<Vec<(u64, &str)>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let log = Arc::clone(&log);
            sched.spawn(name, move || {
                ctx::sleep(Duration::from_millis(delay));
                log.lock().push((ctx::now().as_nanos() / 1_000_000, name));
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(*log.lock(), vec![(10, "b"), (20, "c"), (30, "a")]);
    }

    #[test]
    fn join_returns_value() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let out = sched.spawn("outer", move || {
            let j = h.spawn("inner", || {
                ctx::sleep(Duration::from_secs(1));
                42
            });
            j.join()
        });
        sched.run();
        // After run, the outer task has finished; fetch its result.
        assert_eq!(out.result.lock().take(), Some(42));
    }

    #[test]
    fn wake_before_park_is_remembered() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        let j = sched.spawn("sleeper", move || {
            // Busy at t=0 while the waker fires; then park. The remembered
            // token must make park return immediately.
            ctx::park("test-wait");
            d2.store(1, Ordering::SeqCst);
        });
        let w = h.waker(j.task());
        // Wake at t=0 via an event that runs before the task parks is not
        // possible (task runs first), so wake from another task instead.
        sched.spawn("waker", move || w.wake());
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadlock_is_reported_with_reasons() {
        let sched = Scheduler::new();
        sched.spawn("stuck", || ctx::park("never-signalled"));
        match sched.run_until(SimTime::MAX) {
            RunOutcome::Deadlock(v) => {
                assert_eq!(v, vec![("stuck".to_string(), "never-signalled")]);
            }
            o => panic!("expected deadlock, got {o:?}"),
        }
    }

    #[test]
    fn scheduled_calls_fire_in_time_order_with_fifo_ties() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for (i, at_ms) in [(1u32, 5u64), (2, 5), (3, 1)] {
            let log = Arc::clone(&log);
            h.call_at(SimTime::ZERO + Duration::from_millis(at_ms), move || {
                log.lock().push(i);
            });
        }
        sched.run();
        assert_eq!(*log.lock(), vec![3, 1, 2]);
    }

    #[test]
    fn ties_break_by_scheduling_instant_and_notes_are_not_events() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let hook = h.register_hook(move |arg| l2.lock().push(arg));
        let ms = |n| SimTime::ZERO + Duration::from_millis(n);
        // Scheduled first, but as of 3 ms: goes after the one scheduled now.
        h.call_hook_at(ms(5), Some(ms(3)), hook, 1);
        h.call_hook_at(ms(5), None, hook, 2);
        h.note_hook_at(ms(4), ms(2), hook, 3);
        sched.run();
        assert_eq!(*log.lock(), vec![3, 2, 1]);
        assert_eq!(h.events_dispatched(), 2, "the note is not an event");
        assert_eq!(sched.now(), ms(5));
    }

    #[test]
    fn run_for_respects_time_limit() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        h.call_after(Duration::from_secs(10), move || {
            f2.store(1, Ordering::SeqCst);
        });
        assert_eq!(sched.run_for(Duration::from_secs(5)), RunOutcome::TimeLimit);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(sched.run_for(Duration::from_secs(10)), RunOutcome::Idle);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn task_panic_propagates() {
        let sched = Scheduler::new();
        sched.spawn("boom", || panic!("exploded"));
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run()));
        assert!(r.is_err());
    }

    #[test]
    fn yield_now_interleaves_fairly() {
        let sched = Scheduler::new();
        let log: Arc<Mutex<Vec<&str>>> = Arc::new(Mutex::new(Vec::new()));
        for name in ["x", "y"] {
            let log = Arc::clone(&log);
            sched.spawn(name, move || {
                for _ in 0..3 {
                    log.lock().push(name);
                    ctx::yield_now();
                }
            });
        }
        sched.run();
        assert_eq!(*log.lock(), vec!["x", "y", "x", "y", "x", "y"]);
    }

    #[test]
    fn events_after_a_park_run_on_the_task_thread_outside_task_context() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let seen: Arc<Mutex<Option<(bool, std::thread::ThreadId)>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&seen);
        let task = sched.spawn("parker", move || {
            let w = ctx::waker();
            ctx::handle().call_at(ctx::now() + Duration::from_millis(1), move || {
                *s2.lock() = Some((ctx::in_task(), std::thread::current().id()));
                w.wake();
            });
            ctx::park("test-wait");
            std::thread::current().id()
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        let parker = task.result.lock().take().unwrap();
        let (in_task, ran_on) = seen.lock().take().expect("the call fired");
        assert_eq!(
            ran_on, parker,
            "the parked task's thread dispatched the call"
        );
        assert!(!in_task, "event code must run outside task context");
        assert_eq!(h.events_dispatched(), 1);
    }

    #[test]
    fn hook_panic_during_a_task_park_surfaces_from_run() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let hook = h.register_hook(|_| panic!("hook exploded"));
        sched.spawn("victim", move || {
            let h = ctx::handle();
            h.call_hook_at(h.now() + Duration::from_millis(1), None, hook, 0);
            ctx::park("test-wait");
        });
        // Drive on a helper thread so a hang fails the test instead of
        // stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run()));
            let msg = r.err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .unwrap_or_default()
            });
            let _ = tx.send(msg);
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run() hung after a hook panic");
        assert_eq!(msg.as_deref(), Some("hook exploded"));
    }

    /// The limit is met on the sleeping task's thread (its sleep's handoff
    /// finds the next wake past the limit); the next `run_for` must resume
    /// it where it stopped.
    #[test]
    fn back_to_back_run_for_with_the_stop_found_mid_sleep() {
        let sched = Scheduler::new();
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        sched.spawn("sleeper", move || {
            for _ in 0..6 {
                ctx::sleep(Duration::from_secs(1));
                l2.lock().push(ctx::now().as_nanos() / 1_000_000_000);
            }
        });
        let ms = Duration::from_millis;
        assert_eq!(sched.run_for(ms(2500)), RunOutcome::TimeLimit);
        assert_eq!(*log.lock(), vec![1, 2]);
        assert_eq!(sched.run_for(ms(2000)), RunOutcome::TimeLimit);
        assert_eq!(*log.lock(), vec![1, 2, 3, 4]);
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(*log.lock(), vec![1, 2, 3, 4, 5, 6]);
    }

    /// Two tasks yield to each other around every sleep. A yield never
    /// meets the limit itself (the yielder is runnable, and runnable tasks
    /// go before events), so the stop is found on the last sleeper's
    /// thread and both tasks resume into `yield_now` in the next run.
    #[test]
    fn back_to_back_run_for_with_yields_around_the_stop() {
        let run = |splits: &[u64]| {
            let sched = Scheduler::new();
            let log: Arc<Mutex<Vec<(u64, &str)>>> = Arc::new(Mutex::new(Vec::new()));
            for name in ["p", "q"] {
                let log = Arc::clone(&log);
                sched.spawn(name, move || {
                    for _ in 0..4 {
                        ctx::sleep(Duration::from_secs(1));
                        ctx::yield_now();
                        log.lock().push((ctx::now().as_nanos() / 1_000_000, name));
                        ctx::yield_now();
                    }
                });
            }
            for &ms in splits {
                assert_eq!(
                    sched.run_for(Duration::from_millis(ms)),
                    RunOutcome::TimeLimit
                );
            }
            assert_eq!(sched.run(), RunOutcome::Idle);
            let out = log.lock().clone();
            out
        };
        let whole = run(&[]);
        assert_eq!(whole.len(), 8);
        assert_eq!(run(&[1500, 1000]), whole);
        assert_eq!(run(&[999, 1, 1000]), whole);
    }

    #[test]
    fn finished_task_threads_have_exited_when_run_returns() {
        struct ExitMark(Arc<AtomicUsize>);
        impl Drop for ExitMark {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static MARK: std::cell::RefCell<Option<ExitMark>> =
                const { std::cell::RefCell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let mark = |exited: &Arc<AtomicUsize>| {
            let e = Arc::clone(exited);
            move || MARK.with(|m| *m.borrow_mut() = Some(ExitMark(e)))
        };
        let sched = Scheduler::new();
        for i in 0..6u64 {
            let set = mark(&exited);
            let child_set = mark(&exited);
            sched.spawn(format!("t{i}"), move || {
                set();
                ctx::sleep(Duration::from_millis(i));
                let child = ctx::handle().spawn(format!("c{i}"), move || {
                    child_set();
                    ctx::yield_now();
                });
                child.join();
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(
            exited.load(Ordering::SeqCst),
            12,
            "a finished thread outlived run()"
        );
    }

    #[test]
    fn a_lone_sleeper_keeps_its_thread() {
        let sched = Scheduler::new();
        let h = sched.handle();
        sched.spawn("sleeper", || {
            for _ in 0..1000 {
                ctx::sleep(Duration::from_micros(10));
            }
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(h.slices_granted(), 1001);
        assert!(h.thread_switches() <= 1, "{} switches", h.thread_switches());
    }

    #[test]
    fn queue_ping_pong_switches_thread_on_every_slice() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let (ping, pong) = (
            crate::sync::SimQueue::bounded(1),
            crate::sync::SimQueue::bounded(1),
        );
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sched.spawn("a", move || {
            for i in 0..200u32 {
                ping.push(i).unwrap();
                assert_eq!(pong.pop(), Some(i));
            }
        });
        sched.spawn("b", move || {
            for _ in 0..200 {
                let v = ping2.pop().unwrap();
                pong2.push(v).unwrap();
            }
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert!(h.slices_granted() >= 400, "{} slices", h.slices_granted());
        assert_eq!(h.thread_switches(), h.slices_granted());
    }
}
