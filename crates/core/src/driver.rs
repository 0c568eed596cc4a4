//! The simulation driver: Figure 3's runtime phases over the machine.
//!
//! Each simulated core cycles through the three phases of a task-parallel
//! runtime — **scheduling**, **task execution**, **wake-up** — plus RaCCD's
//! two additions: **deactivate coherence** (`raccd_register` per dependence,
//! before execution) and **invalidate non-coherent data**
//! (`raccd_invalidate`, after execution).
//!
//! Cores are interleaved by a time-ordered heap: the core with the smallest
//! local clock processes the next batch of its task's memory references, so
//! cache, directory and NoC state evolve under true multicore contention
//! while remaining fully deterministic.
//!
//! Task bodies run *functionally at dispatch* (recording their reference
//! trace): the programming model guarantees a task's annotated data is
//! race-free during its execution window (§II-D), so values cannot depend
//! on the interleaving being simulated.

use crate::census::Census;
use crate::mode::CoherenceMode;
use crate::ncrt::Ncrt;
use crate::pt::{PageClassifier, PtDecision};
use crate::resilience::{DegradeController, DetectReason, FaultReport};
use crate::tlbclass::TlbClassifier;
use raccd_mem::{SimMemory, VAddr};
use raccd_obs::{Event, Gauges, Recorder};
use raccd_prof::{Prof, ProfReport, Site};
use raccd_runtime::{MemRef, Program, RetryBook, RetryDecision, TaskCtx, TaskGraph};
use raccd_sched::{PreemptRecord, SchedKind, SchedParams, Scheduler};
use raccd_sim::{
    CheckEvent, CheckReport, CoherenceEvent, FaultPlan, FaultPlane, L1LookupResult, Machine,
    MachineConfig, Stats, TimedEvent, Watchdog,
};
use raccd_snap::{SnapError, Snapshot};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// References processed per core turn before re-entering the heap.
/// Small enough to interleave finely, large enough to amortise heap cost.
const BATCH: usize = 64;

/// Deterministic scheduling jitter (cycles), modelling the wake-up/IPI
/// latency variation of a real runtime. Without it the simulator's
/// perfectly symmetric timing re-assigns every chunk to the same core each
/// iteration, hiding the task-migration behaviour of dynamic schedulers
/// that the paper's PT-vs-RaCCD comparison depends on (§II-B).
fn sched_jitter(core: usize, salt: u64) -> u64 {
    let mut h =
        raccd_mem::SplitMix64::new((core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    h.next_below(48)
}

struct Running {
    tid: raccd_runtime::TaskId,
    trace: Vec<MemRef>,
    pos: usize,
    /// Fault plane: the trace index at which this attempt aborts, if any.
    fail_at: Option<usize>,
}

/// Scheduler construction inputs derived from the machine shape and the
/// task graph. Everything here is recomputable, so restore rebuilds it
/// instead of reading it from the snapshot: critical-path priorities are
/// computed only when the `priority` policy will consume them (and must
/// be computed *before* graph replay consumes the dependent lists).
fn sched_params(cfg: &MachineConfig, graph: &TaskGraph) -> SchedParams {
    let nctx = cfg.ncontexts();
    let tiles_per_socket = cfg.mesh_k * cfg.mesh_k;
    let ctx_socket = (0..nctx)
        .map(|ctx| (ctx / cfg.smt_ways) / tiles_per_socket)
        .collect();
    let priorities = if cfg.sched == SchedKind::Priority {
        raccd_sched::critical_path_priorities(graph.len(), |id| graph.dependents(id))
    } else {
        Vec::new()
    };
    SchedParams {
        nctx,
        ctx_socket,
        priorities,
        quantum: cfg.sched_quantum,
    }
}

/// Everything a timed run produces.
pub struct DriverOutput {
    /// Machine statistics.
    pub stats: Stats,
    /// Protocol events, time-stamped (non-empty only with
    /// `cfg.record_events` and no recorder attached: with telemetry active
    /// they are delivered to the [`Recorder`] as [`Event::Coherence`]
    /// instead).
    pub events: Vec<TimedEvent>,
    /// The Figure 2 block census.
    pub census: Census,
    /// Final memory image (for functional verification).
    pub mem: SimMemory,
    /// Tasks executed.
    pub tasks: usize,
    /// TDG edges.
    pub edges: usize,
    /// Shadow-checker report, when a checker was attached to the machine
    /// (`cfg.shadow_check`, `RACCD_SHADOW_CHECK=1`, or a harness-installed
    /// sink). `None` when no checker ran.
    pub check: Option<CheckReport>,
    /// Fault-plane outcome, when a plane was attached (a `plan` passed to
    /// [`Driver::new`] or `RACCD_FAULT_SPEC`). `None` otherwise.
    pub fault: Option<FaultReport>,
    /// Self-profiler span table, when a profiler was attached
    /// ([`Driver::attach_prof`]). `None` otherwise. Host wall-time
    /// attribution only — never affects the simulated outcome.
    pub prof: Option<ProfReport>,
    /// The scheduler's append-only quantum-preemption audit log (empty
    /// for every policy but `quantum`). Deterministic: identical runs
    /// produce identical logs.
    pub audit: Vec<PreemptRecord>,
}

/// Run a program to completion on a machine configured per `cfg` under the
/// given coherence mode. Telemetry, the self-profiler and fault plans go
/// through [`Driver`] directly: `Driver::new(cfg, mode, program, plan,
/// rec)`, optionally [`Driver::attach_prof`], then [`Driver::finish`].
pub fn run_program(cfg: MachineConfig, mode: CoherenceMode, program: Program) -> DriverOutput {
    Driver::new(cfg, mode, program, None, None).finish(None)
}

/// Why a supervised run stopped ([`Driver::finish_supervised`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SupervisedEnd {
    /// The run drained its heap (or a fault detection ended it) — the
    /// normal completions [`Driver::finish`] also reaches.
    Completed,
    /// The supervisor's tick aborted the run with this reason (campaign
    /// cancellation, per-job watchdog timeout, resource ceiling, …).
    Aborted(String),
}

/// Rollback-recovery knobs for [`run_program_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct RollbackPolicy {
    /// Cycles between automatic checkpoints.
    pub checkpoint_interval: u64,
    /// Detections absorbed by rolling back to the last good checkpoint
    /// before the run gives up and surfaces the detection.
    pub max_rollbacks: u32,
}

impl Default for RollbackPolicy {
    fn default() -> Self {
        RollbackPolicy {
            checkpoint_interval: 100_000,
            max_rollbacks: 3,
        }
    }
}

/// A fault-planned run with checkpoint-rollback recovery: the driver
/// auto-checkpoints every `policy.checkpoint_interval` cycles and, when a
/// fault is *detected* (watchdog, message or task retry budget), restores
/// the last good checkpoint and resumes instead of aborting — up to
/// `policy.max_rollbacks` times. Each rollback reseeds the fault plane
/// (salted by the rollback count) so the replayed interval does not roll
/// the identical faults and livelock. `make_program` rebuilds the program
/// for each restore; it must be deterministic (every workload builder is).
pub fn run_program_resilient(
    cfg: MachineConfig,
    mode: CoherenceMode,
    make_program: &dyn Fn() -> Program,
    plan: FaultPlan,
    policy: RollbackPolicy,
    mut rec: Option<&mut Recorder>,
) -> DriverOutput {
    let mut driver = Driver::new(cfg, mode, make_program(), Some(plan), rec.as_deref_mut());
    driver.set_checkpoint_interval(policy.checkpoint_interval);
    let mut last_good: Option<Snapshot> = None;
    let mut rollbacks = 0u32;
    loop {
        while driver.step(rec.as_deref_mut()) {}
        if let Some(ck) = driver.take_last_checkpoint() {
            last_good = Some(ck);
        }
        if driver.detection().is_none() || rollbacks >= policy.max_rollbacks {
            break;
        }
        let Some(snap) = last_good.as_ref() else {
            break;
        };
        let Ok(mut restored) = Driver::restore(cfg, mode, make_program(), snap) else {
            break;
        };
        rollbacks += 1;
        restored.set_checkpoint_interval(policy.checkpoint_interval);
        restored.reseed_faults(rollbacks as u64);
        restored.rollbacks = rollbacks;
        driver = restored;
    }
    driver.into_output(rec)
}

impl raccd_snap::Snap for Running {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.tid.save(w);
        self.trace.save(w);
        self.pos.save(w);
        self.fail_at.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let run = Running {
            tid: Snap::load(r)?,
            trace: Snap::load(r)?,
            pos: Snap::load(r)?,
            fail_at: Snap::load(r)?,
        };
        if run.pos > run.trace.len() {
            return Err(raccd_snap::SnapError::Invalid("trace position"));
        }
        Ok(run)
    }
}

/// The main simulation loop reified as a resumable struct.
///
/// `Driver::new` + repeated [`Driver::step`] + [`Driver::finish`] is
/// exactly one [`run_program`] call; [`Driver::run_until`] stops at a
/// cycle boundary, and [`Driver::snapshot`] / [`Driver::restore`] capture
/// and revive the *entire* run — machine (caches, directory, NCRT/ADR
/// state, page table, TLBs, memory, fault plane, shadow checker) plus the
/// runtime (TDG progress, ready queues, in-flight task traces, per-context
/// clocks, the event heap) — so a restored run finishes bit-identical to
/// an uninterrupted one. The task graph itself is never serialized:
/// restore rebuilds the program (deterministic builders) and replays the
/// recorded completion order through the wake-up edges, consuming the
/// bodies of already-dispatched tasks whose functional effect is already
/// in the restored memory image.
pub struct Driver {
    cfg: MachineConfig,
    mode: CoherenceMode,
    machine: Machine,
    mem: SimMemory,
    graph: TaskGraph,
    edges: usize,
    watchdog: Option<Watchdog>,
    retry_book: Option<RetryBook>,
    degrade: Option<DegradeController>,
    detection: Option<DetectReason>,
    ncrts: Vec<Ncrt>,
    pt: PageClassifier,
    tlbc: TlbClassifier,
    census: Census,
    ready: Box<dyn Scheduler>,
    /// Quantum-preempted tasks awaiting re-dispatch: their trace and
    /// progress survive here while their id waits in the ready queue.
    parked: BTreeMap<raccd_runtime::TaskId, Running>,
    /// Cycle at which each context's current task was (re)dispatched —
    /// the quantum clock for [`SchedKind::Quantum`].
    quantum_start: Vec<u64>,
    running: Vec<Option<Running>>,
    waker_core: Vec<Option<u32>>,
    wake_time: Vec<u64>,
    trace_pool: Vec<Vec<MemRef>>,
    core_time: Vec<u64>,
    idle: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Tasks in the order they completed (the graph replay script).
    completion_order: Vec<raccd_runtime::TaskId>,
    end_time: u64,
    ckpt_interval: Option<u64>,
    next_ckpt: u64,
    last_ckpt: Option<Snapshot>,
    rollbacks: u32,
    /// Decode time and payload bytes measured during [`Driver::restore`],
    /// held until a profiler is attached (restore runs before
    /// [`Driver::attach_prof`] can), then credited to `snap/decode`.
    pending_decode: Option<(u64, u64)>,
}

impl Driver {
    /// Set up a run: build the machine, arm resilience (with a plan),
    /// announce the TDG to the recorder and seed the ready set.
    pub fn new(
        cfg: MachineConfig,
        mode: CoherenceMode,
        program: Program,
        plan: Option<FaultPlan>,
        mut rec: Option<&mut Recorder>,
    ) -> Driver {
        let Program { mem, graph } = program;
        let edges = graph.edges();
        // Scheduling happens over hardware contexts: cores × SMT ways
        // (§III-E). Context `x` is hardware thread `x % smt_ways` of core
        // `x / smt_ways`.
        let nctx = cfg.ncontexts();

        let mut machine = Machine::new(cfg);
        // Under RaCCD without SMT, a core's NC fills must fall inside the
        // ranges its NCRT currently holds — arm the shadow checker's
        // registration-discipline invariant. (With SMT, sibling contexts
        // share a core-level view the per-core mirror cannot track.)
        if machine.has_checker() && mode == CoherenceMode::Raccd && cfg.smt_ways == 1 {
            machine.check_note(CheckEvent::DisciplineOn);
        }
        if let Some(p) = plan {
            machine.attach_faults(FaultPlane::new(p));
        }
        // The effective plan also covers `RACCD_FAULT_SPEC`
        // auto-attachment. Watchdog, retry book and degrade controller are
        // armed only with a plane attached, so fault-free runs are
        // bit-identical to the seed.
        let fplan = machine.fault_plan();
        let watchdog = fplan.map(|p| Watchdog::new(p.watchdog_cycles));
        let retry_book = fplan.map(|p| RetryBook::new(graph.len(), p.task_retry_budget));
        let degrade = fplan.map(|p| DegradeController::new(&p));
        let ncrts = (0..nctx).map(|_| Ncrt::new(cfg.ncrt_entries)).collect();

        let mut ready = raccd_sched::build(cfg.sched, &sched_params(&cfg, &graph));
        // Telemetry: announce the TDG and the initial ready set at cycle 0.
        if let Some(r) = rec.as_deref_mut() {
            for t in 0..graph.len() {
                let name = r.intern(graph.name(t));
                r.record(Event::TaskCreated {
                    cycle: 0,
                    task: t as u32,
                    name,
                    deps: graph.deps(t).len() as u32,
                });
            }
        }
        // Initial ready set: central queue in creation order; work stealing
        // distributes round-robin so every context starts with local work.
        for (i, t) in graph.initially_ready().into_iter().enumerate() {
            if let Some(r) = rec.as_deref_mut() {
                r.record(Event::TaskWoken {
                    cycle: 0,
                    task: t as u32,
                    waker_core: None,
                });
            }
            ready.push(i % nctx, t);
        }

        let waker_core = vec![None; graph.len()];
        let wake_time = vec![0u64; graph.len()];
        Driver {
            cfg,
            mode,
            machine,
            mem,
            graph,
            edges,
            watchdog,
            retry_book,
            degrade,
            detection: None,
            ncrts,
            pt: PageClassifier::new(),
            tlbc: TlbClassifier::new(),
            census: Census::new(),
            ready,
            parked: BTreeMap::new(),
            quantum_start: vec![0u64; nctx],
            running: (0..nctx).map(|_| None).collect(),
            waker_core,
            wake_time,
            trace_pool: (0..nctx).map(|_| Vec::new()).collect(),
            core_time: vec![0u64; nctx],
            idle: Vec::new(),
            heap: (0..nctx).map(|c| Reverse((0u64, c))).collect(),
            completion_order: Vec::new(),
            end_time: 0,
            ckpt_interval: None,
            next_ckpt: 0,
            last_ckpt: None,
            rollbacks: 0,
            pending_decode: None,
        }
    }

    /// Attach the self-profiler: the output's `prof` then attributes host
    /// wall-time to the fixed [`raccd_prof::Site`] registry (cache lookups,
    /// directory accesses, NoC transmits, TLB walks, runtime scheduling,
    /// snapshot codecs). The profiler reads only host clocks, so the
    /// simulated outcome is bit-identical to an unprofiled run. A decode
    /// measurement pending from [`Driver::restore`] is credited to the
    /// fresh profiler's `snap/decode` site.
    pub fn attach_prof(&mut self) {
        let p = Box::new(Prof::new());
        if let Some((ns, bytes)) = self.pending_decode.take() {
            p.rec_ns(Site::SnapDecode, ns, bytes);
        }
        self.machine.attach_prof(p);
    }

    /// The attached profiler, if any.
    pub fn prof(&self) -> Option<&Prof> {
        self.machine.prof()
    }

    /// Auto-checkpoint every `cycles` heap cycles; the latest snapshot is
    /// retrievable via [`Driver::take_last_checkpoint`].
    pub fn set_checkpoint_interval(&mut self, cycles: u64) {
        let cycles = cycles.max(1);
        self.ckpt_interval = Some(cycles);
        let now = self.heap.peek().map(|&Reverse((t, _))| t).unwrap_or(0);
        self.next_ckpt = now + cycles;
    }

    /// Take the most recent auto-checkpoint, if one was captured.
    pub fn take_last_checkpoint(&mut self) -> Option<Snapshot> {
        self.last_ckpt.take()
    }

    /// Why the run was aborted as detected, if it was.
    pub fn detection(&self) -> Option<DetectReason> {
        self.detection
    }

    /// Tasks retired so far.
    pub fn completed_tasks(&self) -> usize {
        self.completion_order.len()
    }

    /// The next heap cycle to be processed (None when the run is over).
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// Canonical shadow coherence fingerprint (None without a checker).
    pub fn shadow_state_key(&self) -> Option<String> {
        self.machine.shadow_state_key()
    }

    /// Reseed the attached fault plane's RNG (no-op without one). Rollback
    /// recovery calls this so the replayed interval does not re-roll the
    /// identical faults.
    pub fn reseed_faults(&mut self, salt: u64) {
        if let Some(f) = self.machine.faults_mut() {
            f.reseed(salt);
        }
    }

    /// Process heap entries until the next entry lies beyond `cycle`.
    /// Returns `true` while the run is still live (more work pending).
    pub fn run_until(&mut self, cycle: u64, mut rec: Option<&mut Recorder>) -> bool {
        while let Some(&Reverse((t, _))) = self.heap.peek() {
            if t > cycle {
                return true;
            }
            if !self.step(rec.as_deref_mut()) {
                return false;
            }
        }
        false
    }

    /// Run to the end and produce the output.
    pub fn finish(mut self, mut rec: Option<&mut Recorder>) -> DriverOutput {
        while self.step(rec.as_deref_mut()) {}
        self.into_output(rec)
    }

    /// Resilience hook for long-running orchestration (the campaign
    /// service): run to completion, but between slices of at most `slice`
    /// heap cycles call `tick` with the live driver. A `tick` error aborts
    /// the run cooperatively — the driver stops at a slice boundary (a
    /// core-turn boundary, so nothing is half-committed) and the partial
    /// run is discarded: an aborted attempt yields no output, exactly like
    /// a crash at the same point. A completed run also returns the final
    /// shadow-checker `state_key` (when a checker is attached).
    ///
    /// The tick runs on the simulating thread, so it costs one closure
    /// call per slice — size `slice` so supervision overhead stays noise
    /// (the campaign default is 50k cycles).
    pub fn finish_supervised(
        mut self,
        slice: u64,
        mut tick: impl FnMut(&Driver) -> Result<(), String>,
    ) -> (SupervisedEnd, Option<String>, Option<DriverOutput>) {
        let slice = slice.max(1);
        while let Some(t) = self.next_time() {
            if !self.run_until(t.saturating_add(slice), None) {
                break;
            }
            if let Err(reason) = tick(&self) {
                // Mid-program: unexecuted tasks remain, so the driver
                // cannot be torn down into output — drop it whole.
                return (SupervisedEnd::Aborted(reason), None, None);
            }
        }
        let key = self.shadow_state_key();
        (SupervisedEnd::Completed, key, Some(self.into_output(None)))
    }

    /// Process one heap entry (one core turn). Returns `false` when the
    /// run is over: the heap drained or a detection aborted it.
    pub fn step(&mut self, mut rec: Option<&mut Recorder>) -> bool {
        let t_step = raccd_prof::t0(self.machine.prof());
        // Auto-checkpoint on iteration boundaries (state is consistent
        // only between core turns).
        if let Some(interval) = self.ckpt_interval {
            if let Some(&Reverse((t, _))) = self.heap.peek() {
                if t >= self.next_ckpt {
                    self.last_ckpt = Some(self.snapshot());
                    self.next_ckpt = t + interval;
                }
            }
        }
        let Some(Reverse((t, ctx))) = self.heap.pop() else {
            return false;
        };
        // Resilience checks ride the heap clock (only armed with a fault
        // plane attached). A detection aborts the run *visibly*: the
        // caller sees `fault.detected`, never silently wrong output.
        if let Some(w) = self.watchdog.as_ref() {
            if w.expired(t) {
                self.machine.stats.watchdog_fires += 1;
                self.detection = Some(DetectReason::Watchdog {
                    last_progress: w.last_progress,
                    threshold: w.threshold,
                });
                if let Some(r) = rec.as_deref_mut() {
                    r.record(Event::WatchdogFired {
                        cycle: t,
                        last_progress: w.last_progress,
                        threshold: w.threshold,
                    });
                }
                return false;
            }
        }
        if self.machine.fault_fatal() {
            self.detection = Some(DetectReason::MsgRetryBudget);
            return false;
        }
        if let Some(d) = self.degrade.as_mut() {
            if self.mode == CoherenceMode::Raccd
                && d.observe(
                    t,
                    self.machine.stats.ncrt_overflows,
                    self.machine.stats.msg_retries,
                )
            {
                self.machine.stats.mode_downgrades += 1;
                let (ov, rt) = d.last_deltas(
                    self.machine.stats.ncrt_overflows,
                    self.machine.stats.msg_retries,
                );
                if let Some(r) = rec.as_deref_mut() {
                    r.record(Event::ModeDowngrade {
                        cycle: t,
                        overflows: ov,
                        retries: rt,
                    });
                }
            }
        }
        // Under sustained pressure RaCCD falls back to full coherence for
        // everything *new*; tasks already running keep their NC lines
        // until their normal end-of-task flush.
        let eff_mode = match self.degrade.as_ref() {
            Some(d) if d.degraded() && self.mode == CoherenceMode::Raccd => CoherenceMode::FullCoh,
            _ => self.mode,
        };
        // Telemetry: the heap time is globally non-decreasing, so it is
        // the sampling clock; machine protocol events are drained here so
        // the unified stream stays roughly time-ordered.
        if let Some(r) = rec.as_deref_mut() {
            if r.sample_due(t) {
                let c = self.ready.counters();
                let gauges = Gauges {
                    dir_occupied: self.machine.dir_occupied_total(),
                    dir_capacity: self.machine.dir_capacity_total(),
                    ready_tasks: self.ready.len() as u64,
                    busy_contexts: self.running.iter().filter(|x| x.is_some()).count() as u32,
                    sched_popped: c.popped,
                    sched_steals: c.steals,
                };
                r.maybe_sample(t, &self.machine.stats, gauges);
            }
            for te in self.machine.take_events() {
                if let CoherenceEvent::RetryRecovered { delay, .. } = te.ev {
                    r.hist_retry_latency.record(delay);
                }
                r.record(Event::Coherence {
                    cycle: te.cycle,
                    ev: te.ev,
                });
            }
        }
        let mut now = t;
        let core = ctx / self.cfg.smt_ways;
        let tid = (ctx % self.cfg.smt_ways) as u8;
        match self.running[ctx].take() {
            None => {
                // Scheduling phase.
                let t_sched = raccd_prof::t0(self.machine.prof());
                if let Some(task) = self.ready.pop(ctx) {
                    now += self.cfg.runtime.schedule + sched_jitter(ctx, task as u64);
                    if let Some(w) = self.waker_core[task] {
                        if w as usize != core {
                            self.machine.stats.task_migrations += 1;
                            // Migration-aware NCRT hand-off: the task's
                            // regions were produced (or, after preemption,
                            // previously registered and flushed) on `w`;
                            // the register loop below re-registers them on
                            // this core. Count the churn RaCCD pays for it.
                            if eff_mode == CoherenceMode::Raccd {
                                self.machine.stats.ncrt_migrations += 1;
                            }
                            if let Some(r) = rec.as_deref_mut() {
                                r.record(Event::TaskMigrated {
                                    cycle: now,
                                    task: task as u32,
                                    from_core: w,
                                    to_core: core as u32,
                                });
                            }
                        }
                    }
                    if let Some(r) = rec.as_deref_mut() {
                        let wait = now.saturating_sub(self.wake_time[task]);
                        r.hist_wake_to_dispatch.record(wait);
                        let name = r.intern(self.graph.name(task));
                        r.record(Event::TaskScheduled {
                            cycle: now,
                            task: task as u32,
                            name,
                            ctx: ctx as u32,
                            core: core as u32,
                            wait_cycles: wait,
                        });
                    }
                    raccd_prof::rec(self.machine.prof(), Site::Schedule, t_sched);
                    if eff_mode == CoherenceMode::Raccd {
                        // Deactivate coherence: one raccd_register per
                        // dependence (§III-B).
                        for i in 0..self.graph.deps(task).len() {
                            let range = self.graph.deps(task)[i].range;
                            // Injected NCRT-pressure storm: the register
                            // is rejected; the region simply stays
                            // coherent (graceful degradation, counted as
                            // an overflow for the degrade controller).
                            let stormed = self
                                .machine
                                .faults_mut()
                                .map(|f| f.ncrt_storm(now))
                                .unwrap_or(false);
                            if stormed {
                                self.machine.stats.ncrt_overflows += 1;
                                continue;
                            }
                            let reg_start = now;
                            let t_reg = raccd_prof::t0(self.machine.prof());
                            let out = self.ncrts[ctx].register_region(
                                &mut self.machine,
                                core,
                                range,
                                &self.cfg.runtime,
                            );
                            raccd_prof::rec(self.machine.prof(), Site::NcrtRegister, t_reg);
                            now += out.cycles;
                            self.machine.stats.register_cycles += out.cycles;
                            if out.overflowed {
                                self.machine.stats.ncrt_overflows += 1;
                            }
                            if let Some(r) = rec.as_deref_mut() {
                                r.record(Event::NcrtRegister {
                                    cycle: reg_start,
                                    ctx: ctx as u32,
                                    core: core as u32,
                                    task: task as u32,
                                    dur: out.cycles,
                                    entries_added: out.entries_added as u32,
                                    tlb_lookups: out.tlb_lookups as u32,
                                    overflowed: out.overflowed,
                                });
                            }
                        }
                        if self.machine.has_checker() && self.cfg.smt_ways == 1 {
                            self.machine.check_note(CheckEvent::NcrtLoaded {
                                core,
                                ranges: self.ncrts[ctx].entries().to_vec(),
                            });
                        }
                    }
                    if let Some(run) = self.parked.remove(&task) {
                        // Resuming a quantum-preempted task: its trace and
                        // progress survived in the parked map, its body
                        // already ran, and the register loop above just
                        // re-armed the NCRT on this (possibly different)
                        // core — the migration hand-off. The quantum clock
                        // restarts from this dispatch.
                        debug_assert_eq!(run.tid, task);
                        self.quantum_start[ctx] = now;
                        self.running[ctx] = Some(run);
                        self.heap.push(Reverse((now, ctx)));
                    } else {
                        // Run the body functionally, recording the trace.
                        let t_body = raccd_prof::t0(self.machine.prof());
                        let body = self.graph.take_body(task);
                        let mut trace = std::mem::take(&mut self.trace_pool[ctx]);
                        trace.clear();
                        {
                            let mut tcx = TaskCtx::new(&mut self.mem, &mut trace);
                            body(&mut tcx);
                            tcx.stack_traffic(self.cfg.runtime.stack_words_per_task);
                        }
                        raccd_prof::rec(self.machine.prof(), Site::TaskBody, t_body);
                        self.machine.stats.tasks_executed += 1;
                        // Fault plane: roll this dispatch for a straggler
                        // delay and/or a mid-replay failure point.
                        let mut fail_at = None;
                        let trace_len = trace.len();
                        if let Some(inj) = self
                            .machine
                            .faults_mut()
                            .map(|f| f.roll_task(now, trace_len))
                        {
                            fail_at = inj.fail_at;
                            if inj.straggle > 0 {
                                self.machine.stats.task_straggles += 1;
                                now += inj.straggle;
                            }
                        }
                        self.quantum_start[ctx] = now;
                        self.running[ctx] = Some(Running {
                            tid: task,
                            trace,
                            pos: 0,
                            fail_at,
                        });
                        self.heap.push(Reverse((now, ctx)));
                    }
                } else {
                    // Nothing ready: park until a wake-up re-arms us.
                    raccd_prof::rec(self.machine.prof(), Site::Schedule, t_sched);
                    self.core_time[ctx] = now;
                    self.end_time = self.end_time.max(now);
                    self.idle.push(ctx);
                }
            }
            Some(mut run) => {
                // Task execution phase: replay a batch of references.
                let end = (run.pos + BATCH).min(run.trace.len());
                let mut failed = false;
                while run.pos < end {
                    if run.fail_at == Some(run.pos) {
                        failed = true;
                        break;
                    }
                    let r = run.trace[run.pos];
                    run.pos += 1;
                    let bank_wait_before = self.machine.stats.bank_wait_cycles;
                    let t_ref = raccd_prof::t0(self.machine.prof());
                    let cycles = process_ref(
                        &mut self.machine,
                        eff_mode,
                        ctx,
                        core,
                        tid,
                        r,
                        now,
                        &mut self.ncrts[ctx],
                        &mut self.pt,
                        &mut self.tlbc,
                        &mut self.census,
                        &self.cfg,
                        rec.as_deref_mut(),
                    );
                    raccd_prof::rec(self.machine.prof(), Site::MemRef, t_ref);
                    now += cycles;
                    if let Some(rr) = rec.as_deref_mut() {
                        rr.hist_mem_latency.record(cycles);
                        rr.hist_bank_wait
                            .record(self.machine.stats.bank_wait_cycles - bank_wait_before);
                    }
                }
                if failed {
                    // Injected task failure: abort this attempt. RaCCD's
                    // raccd_invalidate discards the attempt's NC residue,
                    // which is exactly what makes re-execution idempotent
                    // (the oracle asserts this in the fault campaign).
                    self.machine.stats.task_retries += 1;
                    let decision = self
                        .retry_book
                        .as_mut()
                        .map(|b| b.note_failure(run.tid))
                        .unwrap_or(RetryDecision::Exhausted);
                    match decision {
                        RetryDecision::Exhausted => {
                            self.detection = Some(DetectReason::TaskRetryBudget { task: run.tid });
                        }
                        RetryDecision::Retry(attempt) => {
                            if self.mode == CoherenceMode::Raccd {
                                let flt = if self.cfg.smt_ways > 1 && self.cfg.smt_selective_flush {
                                    Some(tid)
                                } else {
                                    None
                                };
                                let t_inv = raccd_prof::t0(self.machine.prof());
                                let cycles = self.machine.flush_nc_filtered(core, flt, now);
                                raccd_prof::rec(self.machine.prof(), Site::NcInvalidate, t_inv);
                                self.machine.stats.invalidate_cycles += cycles;
                                now += cycles;
                                if self.machine.has_checker() && self.cfg.smt_ways == 1 {
                                    self.machine.check_note(CheckEvent::NcInvalidate { core });
                                    // The NCRT itself survives the abort:
                                    // re-arm the discipline mirror.
                                    self.machine.check_note(CheckEvent::NcrtLoaded {
                                        core,
                                        ranges: self.ncrts[ctx].entries().to_vec(),
                                    });
                                }
                            }
                            if let Some(r) = rec.as_deref_mut() {
                                r.record(Event::TaskRetry {
                                    cycle: now,
                                    task: run.tid as u32,
                                    ctx: ctx as u32,
                                    attempt,
                                });
                            }
                            // Fresh roll: the retry may fail elsewhere.
                            let trace_len = run.trace.len();
                            run.fail_at = self
                                .machine
                                .faults_mut()
                                .and_then(|f| f.roll_task(now, trace_len).fail_at);
                            run.pos = 0;
                            self.running[ctx] = Some(run);
                            self.heap.push(Reverse((now, ctx)));
                        }
                    }
                } else if run.pos < run.trace.len() {
                    // Quantum preemption (SchedKind::Quantum only):
                    // decided deterministically at batch boundaries, and
                    // only when another task is actually waiting — a lone
                    // task never bounces. The preempted task flushes its
                    // NC residue exactly like a completing task (the NCRT
                    // hand-off is re-registration at the next dispatch),
                    // re-enters the ready queue at the back, and the
                    // decision lands in the append-only audit log.
                    let expired = self
                        .ready
                        .quantum()
                        .is_some_and(|q| now.saturating_sub(self.quantum_start[ctx]) >= q);
                    if expired && !self.ready.is_empty() {
                        if self.mode == CoherenceMode::Raccd {
                            let flt = if self.cfg.smt_ways > 1 && self.cfg.smt_selective_flush {
                                Some(tid)
                            } else {
                                None
                            };
                            let inv_start = now;
                            let flushed_before = self.machine.stats.nc_lines_flushed;
                            let t_inv = raccd_prof::t0(self.machine.prof());
                            let cycles = self.machine.flush_nc_filtered(core, flt, now);
                            raccd_prof::rec(self.machine.prof(), Site::NcInvalidate, t_inv);
                            self.machine.stats.invalidate_cycles += cycles;
                            now += cycles;
                            self.ncrts[ctx].clear();
                            if self.machine.has_checker() && self.cfg.smt_ways == 1 {
                                self.machine.check_note(CheckEvent::NcInvalidate { core });
                            }
                            if let Some(r) = rec.as_deref_mut() {
                                r.record(Event::NcrtInvalidate {
                                    cycle: inv_start,
                                    ctx: ctx as u32,
                                    core: core as u32,
                                    task: run.tid as u32,
                                    dur: cycles,
                                    lines_flushed: self.machine.stats.nc_lines_flushed
                                        - flushed_before,
                                });
                            }
                        }
                        self.machine.stats.preemptions += 1;
                        self.ready.note_preempt(PreemptRecord {
                            cycle: now,
                            task: run.tid,
                            ctx,
                            pos: run.pos,
                            remaining: run.trace.len() - run.pos,
                        });
                        self.waker_core[run.tid] = Some(core as u32);
                        self.wake_time[run.tid] = now;
                        if let Some(r) = rec.as_deref_mut() {
                            r.record(Event::TaskWoken {
                                cycle: now,
                                task: run.tid as u32,
                                waker_core: Some(core as u32),
                            });
                        }
                        self.ready.push(ctx, run.tid);
                        self.parked.insert(run.tid, run);
                        self.heap.push(Reverse((now, ctx)));
                    } else {
                        self.running[ctx] = Some(run);
                        self.heap.push(Reverse((now, ctx)));
                    }
                } else {
                    // Invalidate non-coherent data (RaCCD only), then the
                    // wake-up phase.
                    if self.mode == CoherenceMode::Raccd {
                        let flt = if self.cfg.smt_ways > 1 && self.cfg.smt_selective_flush {
                            Some(tid)
                        } else {
                            None
                        };
                        let inv_start = now;
                        let flushed_before = self.machine.stats.nc_lines_flushed;
                        let t_inv = raccd_prof::t0(self.machine.prof());
                        let cycles = self.machine.flush_nc_filtered(core, flt, now);
                        raccd_prof::rec(self.machine.prof(), Site::NcInvalidate, t_inv);
                        self.machine.stats.invalidate_cycles += cycles;
                        now += cycles;
                        self.ncrts[ctx].clear();
                        if self.machine.has_checker() && self.cfg.smt_ways == 1 {
                            self.machine.check_note(CheckEvent::NcInvalidate { core });
                        }
                        if let Some(r) = rec.as_deref_mut() {
                            r.record(Event::NcrtInvalidate {
                                cycle: inv_start,
                                ctx: ctx as u32,
                                core: core as u32,
                                task: run.tid as u32,
                                dur: cycles,
                                lines_flushed: self.machine.stats.nc_lines_flushed - flushed_before,
                            });
                        }
                    }
                    let ndeps = self.graph.dependent_count(run.tid) as u64;
                    now += self.cfg.runtime.wakeup_base + ndeps * self.cfg.runtime.wakeup_per_dep;
                    if let Some(r) = rec.as_deref_mut() {
                        r.record(Event::TaskCompleted {
                            cycle: now,
                            task: run.tid as u32,
                            ctx: ctx as u32,
                            refs: run.trace.len() as u64,
                        });
                    }
                    for woken in self.graph.complete(run.tid) {
                        self.waker_core[woken] = Some(core as u32);
                        self.wake_time[woken] = now;
                        if let Some(r) = rec.as_deref_mut() {
                            r.record(Event::TaskWoken {
                                cycle: now,
                                task: woken as u32,
                                waker_core: Some(core as u32),
                            });
                        }
                        self.ready.push(ctx, woken);
                    }
                    self.completion_order.push(run.tid);
                    if let Some(w) = self.watchdog.as_mut() {
                        w.note_progress(now);
                    }
                    self.trace_pool[ctx] = run.trace;
                    // Unpark idle cores while work is available.
                    let mut avail = self.ready.len();
                    while avail > 0 {
                        match self.idle.pop() {
                            Some(ic) => {
                                let wake = self.core_time[ic].max(now)
                                    + sched_jitter(ic, self.completion_order.len() as u64);
                                self.heap.push(Reverse((wake, ic)));
                                avail -= 1;
                            }
                            None => break,
                        }
                    }
                    self.running[ctx] = None;
                    self.heap.push(Reverse((now, ctx)));
                }
            }
        }
        self.machine.stats.busy_cycles += now - t;
        self.core_time[ctx] = now;
        self.end_time = self.end_time.max(now);
        raccd_prof::rec(self.machine.prof(), Site::Step, t_step);
        self.detection.is_none()
    }

    /// Capture the entire run as a [`Snapshot`]: every machine section
    /// (see [`Machine::snapshot`]) plus the driver's runtime state.
    pub fn snapshot(&self) -> Snapshot {
        let t = raccd_prof::t0(self.machine.prof());
        let mut s = self.machine.snapshot();
        s.put("driver/mode", &self.mode);
        s.put("driver/mem", &self.mem);
        s.put("driver/ntasks", &self.graph.len());
        s.put("driver/completion_order", &self.completion_order);
        s.put("driver/watchdog", &self.watchdog);
        s.put("driver/retry_book", &self.retry_book);
        s.put("driver/degrade", &self.degrade);
        s.put("driver/ncrts", &self.ncrts);
        s.put("driver/pt", &self.pt);
        s.put("driver/tlbc", &self.tlbc);
        s.put("driver/census", &self.census);
        // The scheduler serialises behind its registry tag; machine-shape
        // inputs (sockets, priorities, quantum) are rebuilt on restore.
        let mut w = raccd_snap::SnapWriter::new();
        raccd_sched::save(self.ready.as_ref(), &mut w);
        s.put_raw("driver/sched", w.into_bytes());
        s.put("driver/parked", &self.parked);
        s.put("driver/quantum_start", &self.quantum_start);
        s.put("driver/running", &self.running);
        s.put("driver/waker_core", &self.waker_core);
        s.put("driver/wake_time", &self.wake_time);
        s.put("driver/core_time", &self.core_time);
        s.put("driver/idle", &self.idle);
        let mut heap: Vec<(u64, usize)> = self.heap.iter().map(|&Reverse(x)| x).collect();
        heap.sort_unstable();
        s.put("driver/heap", &heap);
        s.put("driver/end_time", &self.end_time);
        s.put("driver/rollbacks", &self.rollbacks);
        raccd_prof::rec_units(self.machine.prof(), Site::SnapEncode, t, s.payload_bytes());
        s
    }

    /// Revive a run from a snapshot. `cfg` and `mode` must match the
    /// captured run, and `program` must be the same program rebuilt (the
    /// builders are deterministic); the graph is replayed to the captured
    /// point rather than deserialized, because task bodies are closures.
    pub fn restore(
        cfg: MachineConfig,
        mode: CoherenceMode,
        program: Program,
        s: &Snapshot,
    ) -> Result<Driver, SnapError> {
        // Decode time is measured unconditionally (restore is rare and the
        // clock reads touch no simulated state); the measurement is parked
        // in `pending_decode` and credited iff a profiler is attached.
        let t_decode = std::time::Instant::now();
        let smode: CoherenceMode = s.get("driver/mode")?;
        if smode != mode {
            return Err(SnapError::Invalid("coherence mode mismatch"));
        }
        let mut machine = Machine::new(cfg);
        machine.restore(s)?;
        let Program { mem: _, mut graph } = program;
        let edges = graph.edges();
        let ntasks: usize = s.get("driver/ntasks")?;
        if graph.len() != ntasks {
            return Err(SnapError::Invalid("program shape mismatch"));
        }
        let nctx = cfg.ncontexts();
        // Scheduler params must be derived while the graph is still
        // pristine: the replay below consumes the dependent lists the
        // critical-path priorities are computed from.
        let sched_params = sched_params(&cfg, &graph);
        let completion_order: Vec<raccd_runtime::TaskId> = s.get("driver/completion_order")?;
        let running: Vec<Option<Running>> = s.get("driver/running")?;
        let ncrts: Vec<Ncrt> = s.get("driver/ncrts")?;
        let waker_core: Vec<Option<u32>> = s.get("driver/waker_core")?;
        let wake_time: Vec<u64> = s.get("driver/wake_time")?;
        let core_time: Vec<u64> = s.get("driver/core_time")?;
        let idle: Vec<usize> = s.get("driver/idle")?;
        let heap_vec: Vec<(u64, usize)> = s.get("driver/heap")?;
        if running.len() != nctx
            || ncrts.len() != nctx
            || core_time.len() != nctx
            || waker_core.len() != ntasks
            || wake_time.len() != ntasks
            || idle.iter().any(|&c| c >= nctx)
            || heap_vec.iter().any(|&(_, c)| c >= nctx)
        {
            return Err(SnapError::Invalid("driver geometry"));
        }
        // Replay the TDG to the captured point: completions re-walk the
        // wake-up edges in their original order; bodies of completed and
        // in-flight tasks are consumed (their functional effect is already
        // in the restored memory image).
        let mut seen = vec![false; ntasks];
        for &id in &completion_order {
            if id >= ntasks || seen[id] {
                return Err(SnapError::Invalid("completion order"));
            }
            seen[id] = true;
            drop(graph.take_body(id));
            let _ = graph.complete(id);
        }
        for run in running.iter().flatten() {
            if run.tid >= ntasks || seen[run.tid] {
                return Err(SnapError::Invalid("running task id"));
            }
            seen[run.tid] = true;
            drop(graph.take_body(run.tid));
        }
        // Quantum-preempted tasks: dispatched (body consumed) but neither
        // running nor complete. Sections are optional so pre-scheduler
        // snapshots restore with the empty defaults.
        let parked: BTreeMap<raccd_runtime::TaskId, Running> = if s.has("driver/parked") {
            s.get("driver/parked")?
        } else {
            BTreeMap::new()
        };
        for (&id, run) in &parked {
            if id >= ntasks || seen[id] || run.tid != id {
                return Err(SnapError::Invalid("parked task id"));
            }
            seen[id] = true;
            drop(graph.take_body(id));
        }
        let quantum_start: Vec<u64> = if s.has("driver/quantum_start") {
            s.get("driver/quantum_start")?
        } else {
            vec![0u64; nctx]
        };
        if quantum_start.len() != nctx {
            return Err(SnapError::Invalid("quantum clock geometry"));
        }
        let ready = {
            let bytes = s.raw("driver/sched")?;
            let mut r = raccd_snap::SnapReader::new(bytes);
            let sched = raccd_sched::load(&mut r, &sched_params)?;
            if r.remaining() != 0 {
                return Err(SnapError::TrailingBytes);
            }
            if sched.kind() != cfg.sched {
                return Err(SnapError::Invalid("sched policy mismatch"));
            }
            sched
        };
        Ok(Driver {
            cfg,
            mode,
            machine,
            mem: s.get("driver/mem")?,
            graph,
            edges,
            watchdog: s.get("driver/watchdog")?,
            retry_book: s.get("driver/retry_book")?,
            degrade: s.get("driver/degrade")?,
            detection: None,
            ncrts,
            pt: s.get("driver/pt")?,
            tlbc: s.get("driver/tlbc")?,
            census: s.get("driver/census")?,
            ready,
            parked,
            quantum_start,
            running,
            waker_core,
            wake_time,
            trace_pool: (0..nctx).map(|_| Vec::new()).collect(),
            core_time,
            idle,
            heap: heap_vec.into_iter().map(Reverse).collect(),
            completion_order,
            end_time: s.get("driver/end_time")?,
            ckpt_interval: None,
            next_ckpt: 0,
            last_ckpt: None,
            rollbacks: s.get("driver/rollbacks")?,
            pending_decode: Some((t_decode.elapsed().as_nanos() as u64, s.payload_bytes())),
        })
    }

    /// Tear the run down into its output. Must only be called once the
    /// run is over ([`Driver::step`] returned `false`).
    fn into_output(mut self, mut rec: Option<&mut Recorder>) -> DriverOutput {
        let completed = self.completion_order.len();
        // A detection ends the run early by design; only a clean run
        // promises every task retired.
        if self.detection.is_none() {
            assert_eq!(
                completed,
                self.graph.len(),
                "simulation ended with unexecuted tasks (TDG cycle?)"
            );
        }
        drop(self.graph);

        self.machine.stats.contexts = self.cfg.ncontexts() as u64;
        let mut events = self.machine.take_events();
        if let Some(r) = rec.as_deref_mut() {
            // Tail of the protocol stream goes to the recorder, like the
            // rest.
            for te in events.drain(..) {
                if let CoherenceEvent::RetryRecovered { delay, .. } = te.ev {
                    r.hist_retry_latency.record(delay);
                }
                r.record(Event::Coherence {
                    cycle: te.cycle,
                    ev: te.ev,
                });
            }
        }
        // Unified scheduler counters land in Stats just before the final
        // freeze, so every policy reports them symmetrically.
        let c = self.ready.counters();
        self.machine.stats.sched_pushed = c.pushed;
        self.machine.stats.sched_popped = c.popped;
        self.machine.stats.sched_local_pops = c.local_pops;
        self.machine.stats.sched_steals = c.steals;
        let stats = self.machine.finalize(self.end_time);
        if let Some(r) = rec {
            r.finish(
                self.end_time,
                &stats,
                Gauges {
                    dir_occupied: self.machine.dir_occupied_total(),
                    dir_capacity: self.machine.dir_capacity_total(),
                    ready_tasks: 0,
                    busy_contexts: 0,
                    sched_popped: c.popped,
                    sched_steals: c.steals,
                },
            );
        }
        let prof = self.machine.take_prof().map(|p| p.report());
        let check = self.machine.detach_checker();
        let fault = self.machine.fault_stats().map(|fs| FaultReport {
            stats: fs,
            detected: self.detection,
            degraded: self.degrade.as_ref().is_some_and(|d| d.degraded()),
            tasks_completed: completed,
            task_retries: stats.task_retries,
            rollbacks: self.rollbacks,
        });
        DriverOutput {
            stats,
            events,
            census: self.census,
            mem: self.mem,
            tasks: completed,
            edges: self.edges,
            check,
            fault,
            prof,
            audit: self.ready.audit().to_vec(),
        }
    }
}

/// Process one memory reference of hardware context `ctx` (thread `tid` on
/// `core`) at time `now`. Returns cycles.
#[allow(clippy::too_many_arguments)]
fn process_ref(
    machine: &mut Machine,
    mode: CoherenceMode,
    ctx: usize,
    core: usize,
    tid: u8,
    r: MemRef,
    now: u64,
    ncrt: &mut Ncrt,
    pt: &mut PageClassifier,
    tlbc: &mut TlbClassifier,
    census: &mut Census,
    cfg: &MachineConfig,
    rec: Option<&mut Recorder>,
) -> u64 {
    let vaddr = if r.is_stack() {
        VAddr(cfg.stack_base(ctx) + r.addr().0)
    } else {
        r.addr()
    };
    // The TLB-classifier mode owns translation (it piggybacks the
    // private/shared resolution on TLB misses, §II-B).
    let mut page_private = false;
    let (paddr, mut cycles) = if mode == CoherenceMode::TlbClass {
        let out = tlbc.translate(machine, core, vaddr, now);
        page_private = out.private;
        (out.paddr, out.cycles)
    } else {
        machine.translate(core, vaddr)
    };
    let block = paddr.block();
    let write = r.is_write();

    // PT classification acts on every access (the OS sees the touch).
    if mode == CoherenceMode::PageTable {
        match pt.on_access(core, paddr.page()) {
            PtDecision::Private => page_private = true,
            PtDecision::Shared => {}
            PtDecision::Transition { prev_owner } => {
                machine.stats.pt_shared_transitions += 1;
                let flushed_before = machine.stats.pt_flush_lines;
                cycles += machine.flush_page(prev_owner, paddr.page(), vaddr.page(), now);
                if let Some(r) = rec {
                    r.record(Event::PtTransition {
                        cycle: now,
                        prev_owner: prev_owner as u32,
                        page: paddr.page().0,
                        flushed_lines: machine.stats.pt_flush_lines - flushed_before,
                    });
                }
            }
        }
    }

    let coherent_access = match machine.l1_lookup(core, block, write, now) {
        L1LookupResult::Hit { cycles: c, nc } => {
            cycles += c;
            !nc
        }
        L1LookupResult::Miss => {
            let nc = match mode {
                CoherenceMode::FullCoh => false,
                CoherenceMode::PageTable | CoherenceMode::TlbClass => page_private,
                CoherenceMode::Raccd => {
                    // The NCRT consultation delays every private-cache miss
                    // (§V-C studies this latency).
                    cycles += cfg.lat.ncrt;
                    ncrt.lookup(paddr)
                }
            };
            cycles += machine.miss_fill_smt(core, tid, block, write, nc, now);
            !nc
        }
    };
    census.record(block, coherent_access);
    machine.stats.refs_processed += 1;
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_mem::addr::VRange;
    use raccd_runtime::{Dep, ProgramBuilder};

    /// A small two-phase stencil-like program: 16 writer tasks, then 16
    /// reader tasks each consuming a 3-row neighbourhood. The cross-row
    /// dependences make rows migrate between cores under the dynamic FIFO
    /// scheduler — the temporarily-private pattern of §II-B.
    fn two_phase_program() -> Program {
        let mut b = ProgramBuilder::new();
        let n_rows = 16u64;
        let row_bytes = 4096u64;
        let data = b.alloc("data", n_rows * row_bytes);
        let row_range = move |i: u64| VRange::new(data.start.offset(i * row_bytes), row_bytes);
        for i in 0..n_rows {
            let row = row_range(i);
            b.task("write", vec![Dep::output(row)], move |ctx| {
                for w in 0..row_bytes / 8 {
                    ctx.write_u64(row.start.offset(w * 8), i * 1000 + w);
                }
            });
        }
        for i in 0..n_rows {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n_rows - 1);
            let mut deps: Vec<Dep> = (lo..=hi).map(|j| Dep::input(row_range(j))).collect();
            let sum_out = b.alloc(&format!("sum{i}"), 8);
            deps.push(Dep::output(sum_out));
            b.task("read", deps, move |ctx| {
                let mut s = 0u64;
                for j in lo..=hi {
                    let row = row_range(j);
                    for w in 0..row_bytes / 8 {
                        s = s.wrapping_add(ctx.read_u64(row.start.offset(w * 8)));
                    }
                }
                ctx.write_u64(sum_out.start, s);
            });
        }
        b.finish()
    }

    fn run(mode: CoherenceMode) -> DriverOutput {
        run_program(MachineConfig::scaled(), mode, two_phase_program())
    }

    fn run_faulty(plan: FaultPlan) -> DriverOutput {
        let (cfg, mode) = (MachineConfig::scaled(), CoherenceMode::Raccd);
        Driver::new(cfg, mode, two_phase_program(), Some(plan), None).finish(None)
    }

    #[test]
    fn all_modes_complete_and_agree_functionally() {
        // Reader 0 sums rows 0 and 1: Σ_{j∈{0,1}} Σ_w (j·1000 + w).
        let per_row: u64 = (0..4096 / 8).sum();
        let expected = per_row + (per_row + 512 * 1000);
        for mode in CoherenceMode::ALL {
            let out = run(mode);
            assert_eq!(out.tasks, 32, "{mode}: all tasks executed");
            assert!(out.stats.cycles > 0);
            let sum_addr = out.mem.allocations()[1].1.start;
            assert_eq!(
                out.mem.read_u64(sum_addr),
                expected,
                "{mode}: functional result"
            );
        }
    }

    #[test]
    fn raccd_uses_fewer_directory_accesses() {
        let full = run(CoherenceMode::FullCoh);
        let raccd = run(CoherenceMode::Raccd);
        assert!(
            raccd.stats.dir_accesses < full.stats.dir_accesses / 2,
            "RaCCD {} vs FullCoh {}",
            raccd.stats.dir_accesses,
            full.stats.dir_accesses
        );
    }

    #[test]
    fn raccd_census_beats_pt_on_temporarily_private_data() {
        // The FIFO scheduler migrates rows between cores across the two
        // phases, so PT classifies them shared while RaCCD keeps them
        // non-coherent (Figure 2's CG/Gauss/Jacobi effect).
        let ptr = run(CoherenceMode::PageTable);
        let rcd = run(CoherenceMode::Raccd);
        let pt_pct = ptr.census.summary().noncoherent_pct();
        let rc_pct = rcd.census.summary().noncoherent_pct();
        assert!(
            rc_pct > pt_pct,
            "RaCCD {rc_pct:.1}% should exceed PT {pt_pct:.1}%"
        );
        assert!(rc_pct > 50.0, "most blocks are task data: {rc_pct:.1}%");
    }

    #[test]
    fn fullcoh_census_is_all_coherent() {
        let out = run(CoherenceMode::FullCoh);
        assert_eq!(out.census.summary().noncoherent_blocks, 0);
    }

    #[test]
    fn raccd_pays_register_and_invalidate() {
        let out = run(CoherenceMode::Raccd);
        assert!(out.stats.register_cycles > 0);
        assert!(out.stats.invalidate_cycles > 0);
        assert!(out.stats.nc_lines_flushed > 0);
    }

    #[test]
    fn pt_sees_transitions() {
        let out = run(CoherenceMode::PageTable);
        assert!(
            out.stats.pt_shared_transitions > 0,
            "two-phase data must migrate"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(CoherenceMode::Raccd);
        let b = run(CoherenceMode::Raccd);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.dir_accesses, b.stats.dir_accesses);
        assert_eq!(a.stats.noc_traffic, b.stats.noc_traffic);
        assert_eq!(a.stats.refs_processed, b.stats.refs_processed);
    }

    fn mem_words(out: &DriverOutput) -> Vec<u64> {
        out.mem
            .allocations()
            .iter()
            .flat_map(|(_, r)| (0..r.len / 8).map(|w| out.mem.read_u64(r.start.offset(w * 8))))
            .collect()
    }

    #[test]
    fn faulty_run_recovers_bit_identical_to_fault_free_twin() {
        let clean = run(CoherenceMode::Raccd);
        let plan = FaultPlan {
            seed: 42,
            drop: 0.02,
            corrupt: 0.01,
            delay: 0.02,
            ..FaultPlan::default()
        };
        let faulty = run_faulty(plan);
        let report = faulty.fault.expect("plane attached");
        assert!(report.recovered(), "modest rates recover: {report:?}");
        assert!(report.stats.injected > 0, "faults were actually injected");
        assert_eq!(faulty.tasks, clean.tasks);
        assert_eq!(mem_words(&faulty), mem_words(&clean), "bit-identical");
        // Fault handling cost cycles but never correctness.
        assert!(faulty.stats.cycles >= clean.stats.cycles);
    }

    #[test]
    fn task_failures_reexecute_idempotently() {
        let clean = run(CoherenceMode::Raccd);
        let plan = FaultPlan {
            seed: 9,
            task_fail: 0.3,
            ..FaultPlan::default()
        };
        let faulty = run_faulty(plan);
        let report = faulty.fault.expect("plane attached");
        assert!(report.recovered(), "{report:?}");
        assert!(
            report.task_retries > 0,
            "30% task-fail must trigger retries"
        );
        // The RaCCD idempotence argument: re-executed tasks leave memory
        // exactly as a fault-free run would.
        assert_eq!(mem_words(&faulty), mem_words(&clean));
        assert_eq!(faulty.tasks, clean.tasks);
    }

    #[test]
    fn exhausted_task_budget_is_detected() {
        let plan = FaultPlan {
            seed: 1,
            task_fail: 1.0,
            task_retry_budget: 2,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert!(
            matches!(report.detected, Some(DetectReason::TaskRetryBudget { .. })),
            "certain task failure must exhaust the budget: {report:?}"
        );
        assert!(out.tasks < 32, "the run aborted early");
    }

    #[test]
    fn exhausted_message_budget_is_detected() {
        let plan = FaultPlan {
            seed: 2,
            drop: 1.0,
            retry_budget: 2,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert_eq!(report.detected, Some(DetectReason::MsgRetryBudget));
        assert!(report.stats.budget_exhausted > 0);
    }

    #[test]
    fn straggler_beyond_watchdog_is_detected() {
        let plan = FaultPlan {
            seed: 5,
            straggle: 1.0,
            straggle_cycles: 500_000,
            watchdog_cycles: 100_000,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert!(
            matches!(report.detected, Some(DetectReason::Watchdog { .. })),
            "hung simulation must trip the watchdog: {report:?}"
        );
        assert!(out.stats.watchdog_fires > 0);
    }

    #[test]
    fn sustained_storm_degrades_to_full_coherence() {
        let clean = run(CoherenceMode::Raccd);
        let plan = FaultPlan {
            seed: 8,
            storm: 0.9,
            storm_len: 100_000,
            degrade_window: 1_000_000,
            degrade_overflows: 4,
            ..FaultPlan::default()
        };
        let out = run_faulty(plan);
        let report = out.fault.expect("plane attached");
        assert!(report.degraded, "sustained NCRT pressure must downgrade");
        assert!(report.recovered(), "degradation is graceful: {report:?}");
        assert_eq!(out.stats.mode_downgrades, 1, "downgrade latches once");
        assert_eq!(out.tasks, 32, "the run still completes");
        assert_eq!(mem_words(&out), mem_words(&clean), "results unchanged");
    }

    #[test]
    fn zero_rate_plan_matches_plain_run_exactly() {
        let clean = run(CoherenceMode::Raccd);
        let idle = run_faulty(FaultPlan::default());
        assert_eq!(idle.stats, clean.stats, "zero-fault config is neutral");
        assert_eq!(mem_words(&idle), mem_words(&clean));
        let report = idle.fault.expect("plane attached");
        assert_eq!(report.stats.injected, 0);
    }

    #[test]
    fn reduced_directory_hurts_fullcoh_more_than_raccd() {
        let cfg_small = MachineConfig::scaled().with_dir_ratio(64);
        let full_1 = run(CoherenceMode::FullCoh).stats.cycles as f64;
        let raccd_1 = run(CoherenceMode::Raccd).stats.cycles as f64;
        let full_64 = run_program(cfg_small, CoherenceMode::FullCoh, two_phase_program())
            .stats
            .cycles as f64;
        let raccd_64 = run_program(cfg_small, CoherenceMode::Raccd, two_phase_program())
            .stats
            .cycles as f64;
        let full_slowdown = full_64 / full_1;
        let raccd_slowdown = raccd_64 / raccd_1;
        assert!(
            raccd_slowdown < full_slowdown,
            "RaCCD {raccd_slowdown:.3} vs FullCoh {full_slowdown:.3}"
        );
    }
}
