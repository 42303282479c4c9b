//! The trace-driven out-of-order scheduling model.
//!
//! [`Processor::run`] walks the committed-path micro-op trace once, in
//! order, and computes for every op the cycle it is fetched, issued,
//! completed, and committed, subject to:
//!
//! * fetch bandwidth (one i-cache block per cycle, `fetch_width`
//!   instructions per cycle), i-cache hit/miss latency, taken-branch fetch
//!   redirects, BTB-miss bubbles, and branch-misprediction resolution
//!   stalls;
//! * register dependences (the trace records producer distances);
//! * issue and commit bandwidth, and finite reorder-buffer and
//!   load/store-queue occupancy;
//! * d-cache access latency under the configured policy, plus L2/memory
//!   latency on misses.
//!
//! This is the standard "interval / dependence-chain" approximation of an
//! out-of-order core: it does not simulate wrong-path execution, but it
//! captures the property the paper's performance results rest on — an
//! out-of-order window absorbs an occasional extra cycle on a load, but not
//! an extra cycle on every load.
//!
//! One scheduling loop runs every simulation. The per-op step lives in
//! [`SchedState::step_op`], and the walker [`walk`] is its only caller: per
//! op, one branch-predictor update for a branch or one d-access for a load
//! or store, which writes every lane's L1 hit and latency (a
//! [`DAccessOutcome`]; the d-cache counts the access's class and energy in
//! its own statistics), then each lane's step.
//! [`Processor::run_blocks`] walks one lane over its own bare
//! [`DCacheController`]; the config-parallel lane runner ([`crate::lanes`])
//! walks up to [`wp_cache::MAX_LANES`] lanes through the lane d-cache
//! ([`wp_cache::LaneDCache`]). Both hand the walker a d-access
//! monomorphized per d-policy. A lane's result depends only on its
//! configuration, never on how many lanes share the walk: everything
//! timing-dependent is per lane, and the shared predictor and d-cache
//! states depend only on the op stream.
//!
//! The step runs once per op per lane, so it avoids branches that follow
//! the data: the ROB and LSQ stalls fold into one `max`, dependence
//! distances are masked rather than tested, commit is a pair of selects, and
//! "no fetch block" and "no pending redirect" are sentinels, not `Option`s.

use serde::Serialize;
use wp_cache::{
    ConfigError, DAccessOutcome, DCacheController, DCachePolicy, DCacheStats, FetchKind,
    ICacheController, ICachePolicy, L1Config, MAX_LANES,
};
use wp_energy::ActivityCounts;
use wp_mem::{AccessKind, MemoryHierarchy};
use wp_predictors::{BranchOutcome, HybridBranchPredictor};
use wp_workloads::{BranchClass, IterBlockSource, MicroOp, OpBlockSource, OpBuffer, OpKind};

use crate::result::SimResult;

/// Microarchitectural parameters of the modelled core (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CpuConfig {
    /// Instructions fetched per cycle (Table 1: 8).
    pub fetch_width: usize,
    /// Instructions issued per cycle (Table 1: 8).
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries (Table 1: 64).
    pub rob_entries: usize,
    /// Load/store-queue entries (Table 1: 32).
    pub lsq_entries: usize,
    /// Cycles between fetch and earliest issue (decode/rename/dispatch
    /// depth).
    pub dispatch_latency: u64,
    /// Extra cycles, beyond waiting for the branch to execute, before fetch
    /// resumes after a mispredicted branch.
    pub mispredict_extra_penalty: u64,
    /// Fetch-bubble cycles when a predicted-taken branch misses in the BTB
    /// and the target must come from decode.
    pub btb_miss_penalty: u64,
    /// Integer ALU latency.
    pub int_latency: u64,
    /// Floating-point operation latency.
    pub fp_latency: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 64,
            lsq_entries: 32,
            dispatch_latency: 2,
            mispredict_extra_penalty: 2,
            btb_miss_penalty: 1,
            int_latency: 1,
            fp_latency: 3,
        }
    }
}

impl CpuConfig {
    /// Panics unless the scheduler can model this core: a fetch width of at
    /// least 1, issue and commit widths in `1..=255` (a cycle's slot counter
    /// is a byte), and at least one ROB and one LSQ entry.
    pub fn assert_supported(&self) {
        assert!(
            self.fetch_width >= 1
                && (1..=255).contains(&self.issue_width)
                && (1..=255).contains(&self.commit_width)
                && self.rob_entries >= 1
                && self.lsq_entries >= 1,
            "unsupported core {self:?}: fetch width must be at least 1, issue and commit widths \
             in 1..=255, and the ROB and LSQ need at least one entry each"
        );
    }
}

/// The processor: an out-of-order core timing model bound to an i-cache, a
/// d-cache, the memory hierarchy behind them, and a branch predictor.
///
/// # Example
///
/// ```
/// use wp_cache::{DCacheController, DCachePolicy, ICacheController, ICachePolicy, L1Config};
/// use wp_cpu::{CpuConfig, Processor};
/// use wp_mem::{HierarchyConfig, MemoryHierarchy};
/// use wp_predictors::HybridBranchPredictor;
/// use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dcache = DCacheController::new(L1Config::paper_dcache(), DCachePolicy::SelDmWayPredict)?;
/// let icache = ICacheController::new(L1Config::paper_icache(), ICachePolicy::WayPredict)?;
/// let hierarchy = MemoryHierarchy::new(HierarchyConfig::default())?;
/// let mut cpu = Processor::new(
///     CpuConfig::default(),
///     dcache,
///     icache,
///     hierarchy,
///     HybridBranchPredictor::default(),
/// );
/// let trace = TraceGenerator::new(TraceConfig::new(Benchmark::Gcc).with_ops(20_000));
/// let result = cpu.run(trace);
/// assert!(result.cycles > 0);
/// assert!(result.activity.ipc() > 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Processor {
    dcache: DCacheController,
    branch_predictor: HybridBranchPredictor,
    /// The core and its timing-dependent parts, walked as one lane.
    lane: Lane,
}

/// Maximum register-dependence distance honoured by the scheduler (matches
/// the trace generator's limit and the ROB size). Must be a power of two:
/// the completion ring indexes with `& (MAX_DEP_WINDOW - 1)`.
const MAX_DEP_WINDOW: usize = 64;

/// Per-cycle issue-slot reservations over a dense sliding window.
///
/// Every issue probe starts at `fetched_at + dispatch_latency` or later,
/// and `fetched_at` never decreases, so slots behind the current fetch
/// cycle can never be probed again: the window's base chases the fetch
/// cycle and dead slots are retired off the front.
///
/// The slots live in a power-of-two ring indexed by `cycle & mask` under
/// the invariant that every slot outside `[base, head)` holds zero:
/// advancing the base zeroes exactly the cycles it retires, and a probe
/// beyond `head` claims an untouched (hence free) slot without scanning.
#[derive(Debug)]
struct IssueWindow {
    counts: Box<[u8]>,
    /// Lowest probe-able cycle; slots below are retired.
    base: u64,
    /// One past the highest reserved cycle; slots at or beyond hold zero.
    head: u64,
}

impl Default for IssueWindow {
    /// A 256-cycle window — past a full memory round-trip, so growth is
    /// exceptional.
    fn default() -> Self {
        Self {
            counts: vec![0; 256].into_boxed_slice(),
            base: 0,
            head: 0,
        }
    }
}

impl IssueWindow {
    /// Drops all slots below `floor`. Callers guarantee no future probe
    /// starts below it.
    #[inline]
    fn advance_to(&mut self, floor: u64) {
        if floor <= self.base {
            return;
        }
        let mask = self.counts.len() as u64 - 1;
        let clear_to = floor.min(self.head);
        let mut cycle = self.base;
        while cycle < clear_to {
            self.counts[(cycle & mask) as usize] = 0;
            cycle += 1;
        }
        self.base = floor;
        self.head = self.head.max(floor);
    }

    /// Finds the first cycle at or after `start` with a free slot (fewer
    /// than `width` reservations) and reserves it. A cycle at or past
    /// `head` holds zero by invariant, so it passes the same `< width` test
    /// as any free slot (`width` is at least 1).
    #[inline]
    fn reserve(&mut self, start: u64, width: u8) -> u64 {
        debug_assert!(start >= self.base && width > 0);
        let mut cycle = start;
        loop {
            while cycle - self.base >= self.counts.len() as u64 {
                self.grow();
            }
            let slot = (cycle & (self.counts.len() as u64 - 1)) as usize;
            if self.counts[slot] < width {
                self.counts[slot] += 1;
                self.head = self.head.max(cycle + 1);
                return cycle;
            }
            cycle += 1;
        }
    }

    /// Doubles the ring when a probe lands beyond it (a ready time pushed
    /// past the window by an extreme latency chain), re-placing the live
    /// `[base, head)` span under the new mask.
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![0; self.counts.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.counts, doubled);
        let old_mask = old.len() as u64 - 1;
        let new_mask = self.counts.len() as u64 - 1;
        let mut cycle = self.base;
        while cycle < self.head {
            self.counts[(cycle & new_mask) as usize] = old[(cycle & old_mask) as usize];
            cycle += 1;
        }
    }
}

/// A fixed-capacity ring of in-flight commit cycles, modelling ROB or LSQ
/// occupancy. Every op that takes an entry first reads it — the commit
/// cycle of the op `capacity` entries earlier, whose retirement frees it,
/// or 0 while the structure has not yet filled — and then overwrites it
/// with its own commit cycle: one load and one store per op, and no fill
/// count to branch on.
#[derive(Debug)]
struct OccupancyRing {
    slots: Box<[u64]>,
    /// The entry the next op takes: the oldest in flight once full.
    next: usize,
}

impl OccupancyRing {
    fn new(capacity: usize) -> Self {
        Self {
            slots: vec![0; capacity].into_boxed_slice(),
            next: 0,
        }
    }

    /// The cycle the next op's entry frees at: 0 (never a stall) while the
    /// structure has a free entry.
    #[inline]
    fn oldest(&self) -> u64 {
        self.slots[self.next]
    }

    /// Records an op's commit cycle in the entry [`Self::oldest`] read.
    #[inline]
    fn push(&mut self, commit: u64) {
        self.slots[self.next] = commit;
        self.next += 1;
        if self.next == self.slots.len() {
            self.next = 0;
        }
    }
}

/// `cur_block` when no fetch block is current. Block addresses are `u64`
/// (a 1-byte i-cache block is its PC), so this value is never one.
const NO_BLOCK: u128 = u128::MAX;

/// The mutable scheduling state of one simulated core: fetch steering,
/// bandwidth reservations, the dependence/completion ring, and ROB/LSQ
/// occupancy. One instance per lane of a [`walk`].
#[derive(Debug)]
struct SchedState {
    fetch_cycle: u64,
    slots_left: usize,
    /// The block fetch is reading ops from, or [`NO_BLOCK`] when the next
    /// op must fetch.
    cur_block: u128,
    next_kind: FetchKind,
    /// The earliest cycle fetch may resume at after a redirect; 0, a bound
    /// that never binds, when none is pending.
    pending_resume: u64,
    issue: IssueWindow,
    /// Commits never go backwards (an op commits at or after the one before
    /// it), so the whole commit bandwidth map collapses to the last commit
    /// cycle and how many ops committed there.
    prev_commit: u64,
    commit_used: u32,
    /// Completion cycles of the last [`MAX_DEP_WINDOW`] ops, as a ring:
    /// the op at dependence distance `dep` completed at
    /// `completes[(pushed - dep) & (MAX_DEP_WINDOW - 1)]`.
    completes: [u64; MAX_DEP_WINDOW],
    pushed: usize,
    rob: OccupancyRing,
    lsq: OccupancyRing,
    activity: ActivityCounts,
}

impl SchedState {
    fn new(config: &CpuConfig) -> Self {
        Self {
            fetch_cycle: 0,
            slots_left: 0,
            cur_block: NO_BLOCK,
            next_kind: FetchKind::Redirect,
            pending_resume: 0,
            issue: IssueWindow::default(),
            prev_commit: 0,
            commit_used: 0,
            completes: [0; MAX_DEP_WINDOW],
            pushed: 0,
            rob: OccupancyRing::new(config.rob_entries),
            lsq: OccupancyRing::new(config.lsq_entries),
            activity: ActivityCounts::default(),
        }
    }

    /// Schedules one committed-path op: structural gating, fetch, issue,
    /// execute, branch steering, commit.
    ///
    /// `block_mask` clears the i-cache block offset of a PC: fetch reads one
    /// i-cache block per access.
    ///
    /// `predicted_taken` is the branch predictor's direction for this op
    /// (meaningful only for branches), and `dout` its L1 d-outcome
    /// (meaningful only for loads and stores: for other ops the walker
    /// leaves the last memory op's outcome in place): the walker computes
    /// both once per op for every lane, because neither depends on timing.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn step_op(
        &mut self,
        config: &CpuConfig,
        block_mask: u64,
        op: &MicroOp,
        predicted_taken: bool,
        dout: DAccessOutcome,
        icache: &mut ICacheController,
        hierarchy: &mut MemoryHierarchy,
    ) {
        // ---- structural gating: ROB and LSQ occupancy ----
        // Fetch waits for the op's ROB entry and, for a memory op, its LSQ
        // entry to free.
        let is_mem = op.kind.is_mem();
        let lsq_free = if is_mem { self.lsq.oldest() } else { 0 };
        let free = self.rob.oldest().max(lsq_free);
        if free > self.fetch_cycle {
            self.fetch_cycle = free;
            self.cur_block = NO_BLOCK;
        }

        // ---- fetch ----
        let block = op.pc & block_mask;
        if self.cur_block != u128::from(block) {
            self.fetch_cycle = (self.fetch_cycle + 1).max(self.pending_resume);
            self.pending_resume = 0;
            let outcome = icache.fetch(op.pc, self.next_kind);
            let mut stall = outcome.latency.saturating_sub(1);
            if outcome.is_miss() {
                let (below, _) = hierarchy.access(op.pc, AccessKind::Read);
                stall += below;
                self.activity.l2_accesses += 1;
            }
            self.fetch_cycle += stall;
            self.slots_left = config.fetch_width;
            self.cur_block = u128::from(block);
            self.next_kind = FetchKind::Sequential { prev_pc: op.pc };
        } else if self.slots_left == 0 {
            self.fetch_cycle += 1;
            self.slots_left = config.fetch_width;
        }
        self.slots_left -= 1;
        let fetched_at = self.fetch_cycle;

        // ---- ready / issue ----
        // No probe from this or any later op can start below
        // `fetched_at + dispatch_latency` (fetch never goes backwards), so
        // the issue window can discard everything behind it first.
        let mut ready = fetched_at + config.dispatch_latency;
        self.issue.advance_to(ready);
        // A distance counts when it names one of the last `visible` ops; 0
        // (no dependence) wraps to the largest distance and is masked out.
        let visible = self.pushed.min(MAX_DEP_WINDOW);
        for dep in op.src_deps {
            let dep = usize::from(dep);
            let done = self.completes[self.pushed.wrapping_sub(dep) & (MAX_DEP_WINDOW - 1)];
            let named = dep.wrapping_sub(1) < visible;
            ready = ready.max(if named { done } else { 0 });
        }
        let issue = self.issue.reserve(ready, config.issue_width as u8);

        // ---- execute ----
        let latency = match op.kind {
            OpKind::IntAlu => {
                self.activity.int_ops += 1;
                config.int_latency
            }
            OpKind::FpAlu => {
                self.activity.fp_ops += 1;
                config.fp_latency
            }
            OpKind::Load { addr, .. } => {
                self.activity.loads += 1;
                let mut lat = dout.latency;
                if dout.is_miss() {
                    let (below, _) = hierarchy.access(addr, AccessKind::Read);
                    lat += below;
                    self.activity.l2_accesses += 1;
                }
                lat
            }
            OpKind::Store { addr } => {
                self.activity.stores += 1;
                if dout.is_miss() {
                    // The store's refill proceeds off the critical path,
                    // but it still consumes L2 bandwidth/energy.
                    let _ = hierarchy.access(addr, AccessKind::Write);
                    self.activity.l2_accesses += 1;
                }
                dout.latency
            }
            OpKind::Branch { .. } => {
                self.activity.branches += 1;
                config.int_latency
            }
        };
        let complete = issue + latency;
        self.completes[self.pushed & (MAX_DEP_WINDOW - 1)] = complete;
        self.pushed += 1;

        // ---- branch resolution and next-fetch steering ----
        if let OpKind::Branch {
            taken,
            target,
            class,
        } = op.kind
        {
            let direction_mispredicted = match class {
                BranchClass::Conditional => predicted_taken != taken,
                // Calls, returns and jumps are unconditionally taken.
                BranchClass::Call | BranchClass::Return | BranchClass::Jump => false,
            };
            if direction_mispredicted {
                // Fetch of the correct path waits for the branch to
                // resolve in the pipeline.
                self.pending_resume = complete + 1 + config.mispredict_extra_penalty;
                self.cur_block = NO_BLOCK;
                self.next_kind = FetchKind::Redirect;
            } else if taken {
                self.cur_block = NO_BLOCK;
                self.next_kind = match class {
                    BranchClass::Call => FetchKind::Call {
                        branch_pc: op.pc,
                        return_pc: op.pc + 4,
                    },
                    BranchClass::Return => FetchKind::Return,
                    _ => FetchKind::TakenBranch { branch_pc: op.pc },
                };
                // A predicted-taken branch whose target is not in the BTB
                // costs a short fetch bubble while decode produces it.
                if class != BranchClass::Return && icache.predicted_target(op.pc) != Some(target) {
                    self.pending_resume = fetched_at + 1 + config.btb_miss_penalty;
                }
            } else {
                self.next_kind = FetchKind::NotTakenBranch { prev_pc: op.pc };
            }
        }

        // ---- commit ----
        // In order, `commit_width` per cycle: an op completing after the
        // last commit cycle commits when it completes; otherwise it joins
        // that cycle, or the next one once the cycle is full.
        let later = complete > self.prev_commit;
        let full = self.commit_used >= config.commit_width as u32;
        let commit = if later {
            complete
        } else {
            self.prev_commit + u64::from(full)
        };
        self.commit_used = if later || full {
            1
        } else {
            self.commit_used + 1
        };
        self.prev_commit = commit;
        self.rob.push(commit);
        if is_mem {
            self.lsq.push(commit);
        }
        self.activity.instructions += 1;
    }

    /// Finalizes the run: total cycles is the last commit (1 for an empty
    /// trace) and the accumulated activity is handed out.
    fn finish(mut self) -> ActivityCounts {
        self.activity.cycles = self.prev_commit.max(1);
        self.activity
    }
}

/// One lane of a [`walk`]: a core's configuration and scheduling state,
/// and the parts whose behaviour depends on that core's timing — the
/// i-cache (its fetch sequence follows the lane's scheduling) and the
/// memory hierarchy (its accesses happen in the lane's own program order).
#[derive(Debug)]
pub(crate) struct Lane {
    config: CpuConfig,
    /// Clears the i-cache block offset of a PC: fetch reads one i-cache
    /// block per access.
    block_mask: u64,
    sched: SchedState,
    icache: ICacheController,
    hierarchy: MemoryHierarchy,
}

impl Lane {
    pub(crate) fn new(
        config: CpuConfig,
        icache: ICacheController,
        hierarchy: MemoryHierarchy,
    ) -> Self {
        config.assert_supported();
        Self {
            config,
            block_mask: !(icache.config().block_bytes as u64 - 1),
            sched: SchedState::new(&config),
            icache,
            hierarchy,
        }
    }

    /// Ends the lane's run and assembles its result from the lane's own
    /// parts plus what the walk shared: the lane's d-cache statistics and
    /// the branch predictor's accuracy. Leaves a fresh scheduler for the
    /// next run; the caches keep their contents.
    pub(crate) fn finish(&mut self, dcache: DCacheStats, branch_accuracy: f64) -> SimResult {
        let activity = std::mem::replace(&mut self.sched, SchedState::new(&self.config)).finish();
        SimResult {
            cycles: activity.cycles,
            activity,
            dcache,
            icache: *self.icache.stats(),
            memory_accesses: self.hierarchy.memory_accesses(),
            branch_accuracy,
        }
    }
}

/// The scheduling loop: walks `source` op by op. Per op, one
/// branch-predictor update for a branch (its state depends only on the op
/// stream, so every lane sees the same directions) or one call of
/// `daccess` for a load or store, which services the access once and
/// writes every lane's L1 outcome in lane order; then each lane's
/// [`SchedState::step_op`]. Callers pass a `daccess` monomorphized for one
/// d-policy.
///
/// # Panics
///
/// Panics if there are more than [`MAX_LANES`] lanes.
pub(crate) fn walk(
    source: &mut impl OpBlockSource,
    predictor: &mut HybridBranchPredictor,
    lanes: &mut [Lane],
    mut daccess: impl FnMut(&MicroOp, &mut [DAccessOutcome]),
) {
    let mut outcomes = [DAccessOutcome::default(); MAX_LANES];
    let outcomes = &mut outcomes[..lanes.len()];
    let mut buf = OpBuffer::new();
    loop {
        let ops = source.next_block(&mut buf);
        if ops.is_empty() {
            break;
        }
        for op in ops {
            let predicted_taken = match op.kind {
                OpKind::Branch { taken, .. } => predictor
                    .update(op.pc, BranchOutcome::from_taken(taken))
                    .is_taken(),
                OpKind::Load { .. } | OpKind::Store { .. } => {
                    daccess(op, outcomes);
                    false
                }
                OpKind::IntAlu | OpKind::FpAlu => false,
            };
            for (lane, &dout) in lanes.iter_mut().zip(outcomes.iter()) {
                lane.sched.step_op(
                    &lane.config,
                    lane.block_mask,
                    op,
                    predicted_taken,
                    dout,
                    &mut lane.icache,
                    &mut lane.hierarchy,
                );
            }
        }
    }
}

impl Processor {
    /// Assembles a processor from its parts. Panics if the scheduler cannot
    /// model `config` ([`CpuConfig::assert_supported`]).
    pub fn new(
        config: CpuConfig,
        dcache: DCacheController,
        icache: ICacheController,
        hierarchy: MemoryHierarchy,
        branch_predictor: HybridBranchPredictor,
    ) -> Self {
        Self {
            dcache,
            branch_predictor,
            lane: Lane::new(config, icache, hierarchy),
        }
    }

    /// Builds a processor over the unified L1 controller API: both caches
    /// are constructed from their `(configuration, policy)` pairs on the
    /// shared [`wp_cache::AccessCore`], with the Table 1 memory hierarchy
    /// and branch predictor behind them.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either cache configuration is
    /// inconsistent. Panics as [`Processor::new`] does.
    pub fn with_l1(
        config: CpuConfig,
        l1d: L1Config,
        dpolicy: DCachePolicy,
        l1i: L1Config,
        ipolicy: ICachePolicy,
    ) -> Result<Self, ConfigError> {
        Ok(Self::new(
            config,
            DCacheController::new(l1d, dpolicy)?,
            ICacheController::new(l1i, ipolicy)?,
            MemoryHierarchy::new(wp_mem::HierarchyConfig::default())
                .expect("the Table 1 hierarchy configuration is valid"),
            HybridBranchPredictor::default(),
        ))
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.lane.config
    }

    /// The d-cache controller (for inspecting statistics after a run).
    pub fn dcache(&self) -> &DCacheController {
        &self.dcache
    }

    /// The i-cache controller.
    pub fn icache(&self) -> &ICacheController {
        &self.lane.icache
    }

    /// The branch predictor.
    pub fn branch_predictor(&self) -> &HybridBranchPredictor {
        &self.branch_predictor
    }

    /// Runs the trace to completion and returns the timing, activity, and
    /// cache statistics.
    ///
    /// This is a convenience wrapper over [`Processor::run_blocks`]: the
    /// iterator is consumed through a block buffer, so the two entry points
    /// produce bit-identical results for the same op sequence.
    pub fn run(&mut self, trace: impl IntoIterator<Item = MicroOp>) -> SimResult {
        self.run_blocks(&mut IterBlockSource(trace.into_iter()))
    }

    /// Runs a block-producing op source to completion — the throughput
    /// entry point: the source serves blocks, in place or through a
    /// reusable [`OpBuffer`], and the scheduling loop walks plain slices,
    /// resolving the workload kind once per block instead of once per op.
    ///
    /// The d-cache policy is resolved *once per run*, not once per access:
    /// this dispatches to a monomorphized instantiation of the scheduling
    /// loop per [`DCachePolicy`], walking one lane whose loads go through
    /// [`DCacheController::load_kernel`] with the policy as a compile-time
    /// constant.
    pub fn run_blocks(&mut self, source: &mut impl OpBlockSource) -> SimResult {
        let dcache = &mut self.dcache;
        wp_cache::with_dpolicy_kernel!(dcache.policy(), K => walk(
            source,
            &mut self.branch_predictor,
            std::slice::from_mut(&mut self.lane),
            |op, out| {
                out[0] = match op.kind {
                    OpKind::Load { addr, approx_addr } => {
                        dcache.load_kernel::<K>(op.pc, addr, approx_addr)
                    }
                    OpKind::Store { addr } => dcache.store(op.pc, addr),
                    _ => return,
                };
            },
        ));
        self.lane
            .finish(*self.dcache.stats(), self.branch_predictor.accuracy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};
    use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
    use wp_mem::HierarchyConfig;
    use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};

    fn processor(dpolicy: DCachePolicy, ipolicy: ICachePolicy) -> Processor {
        Processor::new(
            CpuConfig::default(),
            DCacheController::new(L1Config::paper_dcache(), dpolicy).expect("valid"),
            ICacheController::new(L1Config::paper_icache(), ipolicy).expect("valid"),
            MemoryHierarchy::new(HierarchyConfig::default()).expect("valid"),
            HybridBranchPredictor::default(),
        )
    }

    fn run(benchmark: Benchmark, dpolicy: DCachePolicy, ops: usize) -> SimResult {
        let mut cpu = processor(dpolicy, ICachePolicy::WayPredict);
        cpu.run(TraceGenerator::new(
            TraceConfig::new(benchmark).with_ops(ops),
        ))
    }

    #[test]
    fn issue_window_respects_bandwidth() {
        let mut win = IssueWindow::default();
        assert_eq!(win.reserve(10, 2), 10);
        assert_eq!(win.reserve(10, 2), 10);
        assert_eq!(win.reserve(10, 2), 11);
        // Probes behind earlier reservations still find earlier free slots
        // until the base advances past them.
        assert_eq!(win.reserve(5, 2), 5);
        win.advance_to(11);
        assert_eq!(win.base, 11);
        // Cycle 11 already carries one of its two slots; the second still
        // fits, the third spills to 12.
        assert_eq!(win.reserve(11, 2), 11);
        assert_eq!(win.reserve(11, 2), 12);
    }

    #[test]
    fn issue_window_advance_over_an_empty_window_jumps() {
        let mut win = IssueWindow::default();
        win.advance_to(1_000_000);
        assert_eq!(win.base, 1_000_000);
        // The jump is O(1): nothing was reserved, so no slot needed
        // clearing — the window simply re-bases past the gap.
        assert_eq!(win.head, 1_000_000);
        assert_eq!(win.reserve(1_000_000, 1), 1_000_000);
    }

    proptest! {
        /// The ring answers as the naive per-cycle map the oracle reserves
        /// through, across ring wraps and probes far enough past the base
        /// to make it grow and re-place its live span.
        #[test]
        fn issue_window_matches_a_per_cycle_map(
            width in 1u8..=8,
            steps in prop::collection::vec((0u64..6, 0u64..24, 0u64..700, 0u8..12), 1..400),
        ) {
            let mut win = IssueWindow::default();
            let mut reference: HashMap<u64, u8> = HashMap::new();
            let mut floor = 0;
            for (advance, near, far, pick) in steps {
                floor += advance;
                win.advance_to(floor);
                let start = floor + if pick == 0 { 256 + far } else { near };
                let mut cycle = start;
                while reference.get(&cycle).is_some_and(|&used| used >= width) {
                    cycle += 1;
                }
                *reference.entry(cycle).or_insert(0) += 1;
                prop_assert_eq!(win.reserve(start, width), cycle);
            }
        }

        /// Reading the next entry then overwriting it is a queue that pops
        /// its oldest commit exactly when full.
        #[test]
        fn occupancy_ring_matches_a_bounded_queue(
            capacity in 1usize..=70,
            commits in prop::collection::vec(1u64..1_000_000, 0..300),
        ) {
            let mut ring = OccupancyRing::new(capacity);
            let mut queue = VecDeque::new();
            for commit in commits {
                let oldest = if queue.len() == capacity {
                    queue.pop_front().expect("a full queue has an oldest entry")
                } else {
                    0
                };
                prop_assert_eq!(ring.oldest(), oldest);
                ring.push(commit);
                queue.push_back(commit);
            }
        }
    }

    fn run_core(cpu: CpuConfig) -> SimResult {
        Processor::with_l1(
            cpu,
            L1Config::paper_dcache(),
            DCachePolicy::Parallel,
            L1Config::paper_icache(),
            ICachePolicy::Parallel,
        )
        .expect("valid caches")
        .run(TraceGenerator::new(
            TraceConfig::new(Benchmark::Gcc).with_ops(2_000),
        ))
    }

    #[test]
    #[should_panic(expected = "unsupported core")]
    fn an_issue_width_of_zero_is_refused() {
        run_core(CpuConfig {
            issue_width: 0,
            ..CpuConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "unsupported core")]
    fn an_issue_width_past_the_slot_counter_is_refused() {
        run_core(CpuConfig {
            issue_width: 256,
            ..CpuConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "unsupported core")]
    fn a_rob_without_entries_is_refused() {
        run_core(CpuConfig {
            rob_entries: 0,
            ..CpuConfig::default()
        });
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let mut cpu = processor(DCachePolicy::Parallel, ICachePolicy::Parallel);
        let result = cpu.run(Vec::new());
        assert_eq!(result.activity.instructions, 0);
        assert_eq!(result.cycles, 1);
    }

    #[test]
    fn ipc_is_plausible_for_an_8_wide_core() {
        let result = run(Benchmark::Gcc, DCachePolicy::Parallel, 60_000);
        let ipc = result.activity.ipc();
        assert!(ipc > 0.5 && ipc < 8.0, "ipc {ipc}");
    }

    #[test]
    fn instruction_counts_match_trace_length() {
        let result = run(Benchmark::Perl, DCachePolicy::Parallel, 30_000);
        assert_eq!(result.activity.instructions, 30_000);
        let a = &result.activity;
        assert_eq!(
            a.int_ops + a.fp_ops + a.loads + a.stores + a.branches,
            a.instructions
        );
    }

    #[test]
    fn sequential_dcache_is_slower_than_parallel() {
        // Figure 4: a 2-cycle sequential d-cache costs real performance.
        let parallel = run(Benchmark::Gcc, DCachePolicy::Parallel, 60_000);
        let sequential = run(Benchmark::Gcc, DCachePolicy::Sequential, 60_000);
        assert!(
            sequential.cycles > parallel.cycles,
            "sequential {} vs parallel {}",
            sequential.cycles,
            parallel.cycles
        );
    }

    #[test]
    fn seldm_waypredict_is_close_to_parallel_performance() {
        // The headline performance claim: < 3 % degradation for the
        // combined technique (checked loosely here on a short trace).
        let parallel = run(Benchmark::Gcc, DCachePolicy::Parallel, 60_000);
        let seldm = run(Benchmark::Gcc, DCachePolicy::SelDmWayPredict, 60_000);
        let degradation = seldm.cycles as f64 / parallel.cycles as f64 - 1.0;
        assert!(
            degradation < 0.08,
            "selective-DM + way-prediction degraded {degradation}"
        );
        // And it must not be faster than the 1-cycle parallel baseline by
        // more than noise.
        assert!(degradation > -0.02);
    }

    #[test]
    fn memory_bound_benchmark_has_lower_ipc() {
        let swim = run(Benchmark::Swim, DCachePolicy::Parallel, 40_000);
        let troff = run(Benchmark::Troff, DCachePolicy::Parallel, 40_000);
        assert!(
            swim.activity.ipc() < troff.activity.ipc(),
            "swim {} vs troff {}",
            swim.activity.ipc(),
            troff.activity.ipc()
        );
    }

    #[test]
    fn branch_predictor_reaches_reasonable_accuracy() {
        let result = run(Benchmark::M88ksim, DCachePolicy::Parallel, 60_000);
        assert!(
            result.branch_accuracy > 0.80,
            "branch accuracy {}",
            result.branch_accuracy
        );
    }

    #[test]
    fn dcache_sees_loads_and_stores() {
        let result = run(Benchmark::Vortex, DCachePolicy::SelDmWayPredict, 40_000);
        assert_eq!(result.dcache.loads, result.activity.loads);
        assert_eq!(result.dcache.stores, result.activity.stores);
        assert!(result.dcache.total_energy() > 0.0);
        assert!(result.icache.total_energy() > 0.0);
    }

    #[test]
    fn l2_accesses_are_counted_for_both_caches() {
        let result = run(Benchmark::Swim, DCachePolicy::Parallel, 40_000);
        assert!(result.activity.l2_accesses > 0);
        assert!(
            result.activity.l2_accesses >= result.dcache.misses().min(result.activity.instructions)
        );
    }
}
