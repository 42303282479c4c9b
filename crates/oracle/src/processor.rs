//! The oracle's scheduling loop: one micro-op at a time, straight off the
//! iterator, no block buffers, no monomorphized kernels, no custom hashers.
//!
//! This is the model `wp_cpu::Processor::run_blocks` implements after four
//! rounds of optimization. The oracle walks the same committed-path trace
//! with the same rules — ROB/LSQ gating, fetch bandwidth and i-cache
//! behaviour, dependence-limited issue, branch redirects, in-order commit —
//! written in the most direct form available: `SipHash`-hashed `HashMap`s
//! for the bandwidth reservations (the optimized loop's cheap `CycleHasher`
//! changes only bucket placement, never lookup answers) and *no* periodic
//! map cleanup (the optimized loop's `retain` only ever drops cycles that
//! can no longer be probed, so skipping it is observationally identical —
//! the conformance harness proves that on every run).

use std::collections::{HashMap, VecDeque};

use wp_cache::{ConfigError, DCachePolicy, FetchKind, ICachePolicy, L1Config};
use wp_cpu::{CpuConfig, SimResult};
use wp_energy::ActivityCounts;
use wp_mem::HierarchyConfig;
use wp_predictors::{BranchOutcome, HybridBranchPredictor};
use wp_workloads::{BranchClass, MicroOp, OpKind};

use crate::cache::AccessKind;
use crate::dcache::OracleDCache;
use crate::hierarchy::OracleHierarchy;
use crate::icache::OracleICache;

/// Maximum register-dependence distance honoured by the scheduler (matches
/// `wp_cpu`'s limit and the trace generator's).
const MAX_DEP_WINDOW: usize = 64;

/// The reference processor: the same parts as [`wp_cpu::Processor`], every
/// one in its naive form.
#[derive(Debug)]
pub struct OracleProcessor {
    config: CpuConfig,
    dcache: OracleDCache,
    icache: OracleICache,
    hierarchy: OracleHierarchy,
    branch_predictor: HybridBranchPredictor,
}

impl OracleProcessor {
    /// Builds the oracle over the same `(configuration, policy)` surface as
    /// [`wp_cpu::Processor::with_l1`], with the Table 1 memory hierarchy
    /// and branch predictor behind the L1s.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either cache configuration is
    /// inconsistent.
    ///
    /// # Panics
    ///
    /// Panics where the optimized scheduler does
    /// ([`CpuConfig::assert_supported`]).
    pub fn with_l1(
        config: CpuConfig,
        l1d: L1Config,
        dpolicy: DCachePolicy,
        l1i: L1Config,
        ipolicy: ICachePolicy,
    ) -> Result<Self, ConfigError> {
        config.assert_supported();
        Ok(Self {
            config,
            dcache: OracleDCache::new(l1d, dpolicy)?,
            icache: OracleICache::new(l1i, ipolicy)?,
            hierarchy: OracleHierarchy::new(HierarchyConfig::default())
                .expect("the Table 1 hierarchy configuration is valid"),
            branch_predictor: HybridBranchPredictor::default(),
        })
    }

    /// Runs the trace to completion, op by op, and returns the same
    /// [`SimResult`] the optimized processor produces for the same stream.
    pub fn run(&mut self, trace: impl IntoIterator<Item = MicroOp>) -> SimResult {
        let block_bytes = self.icache.config().block_bytes as u64;

        let mut activity = ActivityCounts::default();
        let mut issue_used: HashMap<u64, u32> = HashMap::new();
        let mut commit_used: HashMap<u64, u32> = HashMap::new();
        let mut completes: VecDeque<u64> = VecDeque::new();
        let mut rob: VecDeque<u64> = VecDeque::new();
        let mut lsq: VecDeque<u64> = VecDeque::new();

        let mut fetch_cycle: u64 = 0;
        let mut slots_left: usize = 0;
        let mut cur_block: Option<u64> = None;
        let mut next_kind = FetchKind::Redirect;
        let mut pending_resume: Option<u64> = None;
        let mut prev_commit: u64 = 0;
        let mut last_commit: u64 = 0;

        for op in trace {
            // ---- structural gating: ROB and LSQ occupancy ----
            if rob.len() == self.config.rob_entries {
                let oldest = rob.pop_front().unwrap_or(0);
                if oldest > fetch_cycle {
                    fetch_cycle = oldest;
                    cur_block = None;
                }
            }
            let is_mem = op.kind.is_mem();
            if is_mem && lsq.len() == self.config.lsq_entries {
                let oldest = lsq.pop_front().unwrap_or(0);
                if oldest > fetch_cycle {
                    fetch_cycle = oldest;
                    cur_block = None;
                }
            }

            // ---- fetch: one i-cache block per access ----
            let block = op.pc - op.pc % block_bytes;
            if cur_block != Some(block) {
                fetch_cycle += 1;
                if let Some(resume) = pending_resume.take() {
                    fetch_cycle = fetch_cycle.max(resume);
                }
                let outcome = self.icache.fetch(op.pc, next_kind);
                let mut stall = outcome.latency.saturating_sub(1);
                if !outcome.hit {
                    stall += self.hierarchy.access(op.pc, AccessKind::Read);
                    activity.l2_accesses += 1;
                }
                fetch_cycle += stall;
                slots_left = self.config.fetch_width;
                cur_block = Some(block);
                next_kind = FetchKind::Sequential { prev_pc: op.pc };
            } else if slots_left == 0 {
                fetch_cycle += 1;
                slots_left = self.config.fetch_width;
            }
            slots_left -= 1;
            let fetched_at = fetch_cycle;

            // ---- ready / issue ----
            let mut ready = fetched_at + self.config.dispatch_latency;
            for dep in op.src_deps {
                let dep = dep as usize;
                if dep > 0 && dep <= completes.len() {
                    ready = ready.max(completes[completes.len() - dep]);
                }
            }
            let issue = reserve_slot(&mut issue_used, ready, self.config.issue_width as u32);

            // ---- execute ----
            let latency = match op.kind {
                OpKind::IntAlu => {
                    activity.int_ops += 1;
                    self.config.int_latency
                }
                OpKind::FpAlu => {
                    activity.fp_ops += 1;
                    self.config.fp_latency
                }
                OpKind::Load { addr, approx_addr } => {
                    activity.loads += 1;
                    let out = self.dcache.load(op.pc, addr, approx_addr);
                    let mut lat = out.latency;
                    if !out.hit {
                        lat += self.hierarchy.access(addr, AccessKind::Read);
                        activity.l2_accesses += 1;
                    }
                    lat
                }
                OpKind::Store { addr } => {
                    activity.stores += 1;
                    let out = self.dcache.store(op.pc, addr);
                    if !out.hit {
                        // The refill is off the critical path but still
                        // consumes L2 bandwidth/energy.
                        let _ = self.hierarchy.access(addr, AccessKind::Write);
                        activity.l2_accesses += 1;
                    }
                    out.latency
                }
                OpKind::Branch { .. } => {
                    activity.branches += 1;
                    self.config.int_latency
                }
            };
            let complete = issue + latency;
            completes.push_back(complete);
            if completes.len() > MAX_DEP_WINDOW {
                completes.pop_front();
            }

            // ---- branch resolution and next-fetch steering ----
            if let OpKind::Branch {
                taken,
                target,
                class,
            } = op.kind
            {
                let predicted = self
                    .branch_predictor
                    .update(op.pc, BranchOutcome::from_taken(taken));
                let direction_mispredicted = match class {
                    BranchClass::Conditional => predicted.is_taken() != taken,
                    BranchClass::Call | BranchClass::Return | BranchClass::Jump => false,
                };
                if direction_mispredicted {
                    pending_resume = Some(complete + 1 + self.config.mispredict_extra_penalty);
                    cur_block = None;
                    next_kind = FetchKind::Redirect;
                } else if taken {
                    cur_block = None;
                    next_kind = match class {
                        BranchClass::Call => FetchKind::Call {
                            branch_pc: op.pc,
                            return_pc: op.pc + 4,
                        },
                        BranchClass::Return => FetchKind::Return,
                        _ => FetchKind::TakenBranch { branch_pc: op.pc },
                    };
                    if class != BranchClass::Return
                        && self.icache.predicted_target(op.pc) != Some(target)
                    {
                        pending_resume = Some(fetched_at + 1 + self.config.btb_miss_penalty);
                    }
                } else {
                    next_kind = FetchKind::NotTakenBranch { prev_pc: op.pc };
                }
            }

            // ---- commit ----
            let commit_ready = complete.max(prev_commit);
            let commit = reserve_slot(
                &mut commit_used,
                commit_ready,
                self.config.commit_width as u32,
            );
            prev_commit = commit;
            last_commit = last_commit.max(commit);
            rob.push_back(commit);
            if is_mem {
                lsq.push_back(commit);
            }
            activity.instructions += 1;
        }

        activity.cycles = last_commit.max(1);
        SimResult {
            cycles: activity.cycles,
            activity,
            dcache: *self.dcache.stats(),
            icache: *self.icache.stats(),
            memory_accesses: self.hierarchy.memory_accesses(),
            branch_accuracy: self.branch_predictor.accuracy(),
        }
    }
}

/// Finds the first cycle at or after `start` with a free slot and reserves
/// it — identical rules to the optimized loop's `reserve_slot`, over a
/// default-hashed map.
fn reserve_slot(used: &mut HashMap<u64, u32>, start: u64, width: u32) -> u64 {
    let mut cycle = start;
    loop {
        let entry = used.entry(cycle).or_insert(0);
        if *entry < width {
            *entry += 1;
            return cycle;
        }
        cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_cpu::Processor;
    use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};

    fn trace(benchmark: Benchmark, ops: usize) -> TraceGenerator {
        TraceGenerator::new(TraceConfig::new(benchmark).with_ops(ops).with_seed(42))
    }

    #[test]
    fn empty_trace_produces_the_optimized_empty_result() {
        let mut oracle = OracleProcessor::with_l1(
            CpuConfig::default(),
            L1Config::paper_dcache(),
            DCachePolicy::Parallel,
            L1Config::paper_icache(),
            ICachePolicy::Parallel,
        )
        .expect("valid");
        let result = oracle.run(Vec::new());
        assert_eq!(result.activity.instructions, 0);
        assert_eq!(result.cycles, 1);
    }

    #[test]
    #[should_panic(expected = "unsupported core")]
    fn refuses_a_core_the_optimized_scheduler_cannot_model() {
        // A zero commit width would never find a commit slot.
        let _ = OracleProcessor::with_l1(
            CpuConfig {
                commit_width: 0,
                ..CpuConfig::default()
            },
            L1Config::paper_dcache(),
            DCachePolicy::Parallel,
            L1Config::paper_icache(),
            ICachePolicy::Parallel,
        );
    }

    #[test]
    fn matches_the_optimized_processor_bit_for_bit() {
        for (benchmark, dpolicy, ipolicy) in [
            (
                Benchmark::Gcc,
                DCachePolicy::Parallel,
                ICachePolicy::Parallel,
            ),
            (
                Benchmark::Swim,
                DCachePolicy::SelDmWayPredict,
                ICachePolicy::WayPredict,
            ),
            (
                Benchmark::Li,
                DCachePolicy::Sequential,
                ICachePolicy::WayPredict,
            ),
            (
                Benchmark::Fpppp,
                DCachePolicy::WayPredictXor,
                ICachePolicy::WayPredict,
            ),
        ] {
            let mut oracle = OracleProcessor::with_l1(
                CpuConfig::default(),
                L1Config::paper_dcache(),
                dpolicy,
                L1Config::paper_icache(),
                ipolicy,
            )
            .expect("valid");
            let mut fast = Processor::with_l1(
                CpuConfig::default(),
                L1Config::paper_dcache(),
                dpolicy,
                L1Config::paper_icache(),
                ipolicy,
            )
            .expect("valid");
            let naive = oracle.run(trace(benchmark, 20_000));
            let optimized = fast.run(trace(benchmark, 20_000));
            assert!(
                naive.exact_eq(&optimized),
                "{benchmark:?}/{dpolicy}/{ipolicy}: {:?}",
                naive.diff(&optimized)
            );
        }
    }
}
