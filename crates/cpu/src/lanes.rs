//! Config-parallel lane simulation: N machine configurations, one pass over
//! the op stream.
//!
//! Gang scheduling (`wp-experiments`) already materializes each workload
//! stream once and replays it to every configuration in the gang — but each
//! replay still walks the stream separately. The lane runner goes one step
//! further for configurations that share a d-cache policy and geometry: it
//! drives up to [`wp_cache::MAX_LANES`] of them through **one** walk,
//! splitting each op into
//!
//! 1. a *shared pass*: one branch-predictor update (the predictor's state
//!    depends only on the op stream, so every lane sees the same direction
//!    sequence) and one d-cache access per distinct d-cache state through
//!    [`wp_cache::LaneDCache`] (lanes that differ only in base latency
//!    share one controller), whose per-lane outcomes are buffered
//!    lane-major; then
//! 2. a *per-lane pass*: each lane's [`crate::pipeline`] scheduling state
//!    steps through the block with its precomputed d-outcomes handed back
//!    via `ReadyDSide`.
//!
//! Everything timing-dependent stays per lane: the i-cache (its fetch
//! sequence depends on the lane's scheduling), the memory hierarchy, and
//! the scheduler itself. Because the d-cache state depends only on the
//! `(address, kind)` program order — never on timing — and the precomputed
//! outcomes do not touch the hierarchy (the miss's L2 access happens inside
//! `step_op`, in per-lane program order, exactly as on the scalar path),
//! every lane's result is bit-identical to a scalar [`crate::Processor`]
//! run of the same configuration. `tests/lanes.rs` and the conformance
//! harness hold the engine to that.
//!
//! Lanes may differ in anything outside the batch key (d-policy plus
//! d-geometry): probe latencies, prediction-table sizes, the entire i-side,
//! and the core configuration. Figure 10's six i-cache variants, for
//! example, batch into a single lane group.

use wp_cache::{
    ConfigError, DAccessOutcome, DCachePolicy, ICacheController, ICachePolicy, L1Config,
    LaneDCache, MAX_LANES,
};
use wp_mem::{HierarchyConfig, MemoryHierarchy};
use wp_predictors::{BranchOutcome, HybridBranchPredictor};
use wp_workloads::{OpBlockSource, OpBuffer, OpKind};

use crate::pipeline::{CpuConfig, DServiced, ReadyDSide, SchedState};
use crate::result::SimResult;

/// One lane of a batch: everything that may vary per configuration when the
/// d-cache policy and geometry are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneMember {
    /// Core parameters.
    pub cpu: CpuConfig,
    /// L1 d-cache configuration. Must agree with every other member on
    /// size, block size, and associativity; latencies and prediction-table
    /// sizes are free.
    pub l1d: L1Config,
    /// L1 i-cache configuration (fully per-lane).
    pub l1i: L1Config,
    /// I-cache access policy (fully per-lane).
    pub ipolicy: ICachePolicy,
}

/// Runs every member of the batch over one shared walk of `source`,
/// returning one [`SimResult`] per member, in member order — each
/// bit-identical to a scalar [`crate::Processor`] run of that
/// configuration over the same op sequence.
///
/// # Errors
///
/// Returns a [`ConfigError`] if any member's cache configuration is
/// inconsistent.
///
/// # Panics
///
/// Panics if `members` is empty, wider than [`MAX_LANES`], or the members
/// disagree on d-cache geometry — batch construction (`wp-experiments`)
/// groups by `(policy, geometry)` before calling this.
pub fn run_lane_batch(
    dpolicy: DCachePolicy,
    members: &[LaneMember],
    source: &mut impl OpBlockSource,
) -> Result<Vec<SimResult>, ConfigError> {
    wp_cache::with_dpolicy_kernel!(dpolicy, K => {
        run_lane_batch_kernel::<K>(dpolicy, members, source)
    })
}

/// [`run_lane_batch`] monomorphized for one d-cache policy.
fn run_lane_batch_kernel<K: wp_cache::DPolicyKernel>(
    dpolicy: DCachePolicy,
    members: &[LaneMember],
    source: &mut impl OpBlockSource,
) -> Result<Vec<SimResult>, ConfigError> {
    let lanes = members.len();
    let d_configs: Vec<L1Config> = members.iter().map(|m| m.l1d).collect();
    let mut dcache = LaneDCache::new(&d_configs, dpolicy)?;
    let mut icaches = members
        .iter()
        .map(|m| ICacheController::new(m.l1i, m.ipolicy))
        .collect::<Result<Vec<_>, _>>()?;
    let mut hierarchies: Vec<MemoryHierarchy> = (0..lanes)
        .map(|_| {
            MemoryHierarchy::new(HierarchyConfig::default())
                .expect("the Table 1 hierarchy configuration is valid")
        })
        .collect();
    let mut predictor = HybridBranchPredictor::default();
    let mut scheds: Vec<SchedState> = members.iter().map(|m| SchedState::new(&m.cpu)).collect();
    // The fetch block is the i-cache block, which is free to vary per lane.
    let block_masks: Vec<u64> = members
        .iter()
        .map(|m| !(m.l1i.block_bytes as u64 - 1))
        .collect();

    let mut buf = OpBuffer::new();
    let mut predictions: Vec<bool> = Vec::new();
    // Per-block d-outcomes, lane-major and compacted to memory ops: lane
    // `l`'s outcome for the block's `j`-th load/store sits at
    // `l * stride + j`. Every lane sees the same op stream, so the memory
    // ops land at the same ordinals in every lane and the per-lane pass
    // consumes its row with a plain cursor. The buffer is allocated once — a
    // block only overwrites (and reads back) the slots its memory ops touch,
    // so there is no per-block clear or default-fill.
    let stride = buf.capacity();
    let mut outcomes: Vec<DServiced> = vec![DServiced::default(); lanes * stride];
    let mut scratch = [DAccessOutcome::default(); MAX_LANES];
    while source.fill(&mut buf) > 0 {
        let ops = buf.ops();
        predictions.clear();

        // ---- shared pass: predictor directions and d-cache outcomes ----
        let mut mem_ops = 0usize;
        for op in ops {
            predictions.push(if let OpKind::Branch { taken, .. } = op.kind {
                predictor
                    .update(op.pc, BranchOutcome::from_taken(taken))
                    .is_taken()
            } else {
                false
            });
            match op.kind {
                OpKind::Load { addr, approx_addr } => {
                    dcache.load_kernel::<K>(op.pc, addr, approx_addr, &mut scratch[..lanes]);
                }
                OpKind::Store { addr } => {
                    dcache.store(op.pc, addr, &mut scratch[..lanes]);
                }
                _ => continue,
            }
            for (l, &out) in scratch[..lanes].iter().enumerate() {
                outcomes[l * stride + mem_ops] = out.into();
            }
            mem_ops += 1;
        }

        // ---- per-lane pass: scheduling with precomputed d-outcomes ----
        for (l, sched) in scheds.iter_mut().enumerate() {
            let mut dside = ReadyDSide {
                outcomes: &outcomes[l * stride..l * stride + mem_ops],
                cursor: 0,
            };
            let icache = &mut icaches[l];
            let hierarchy = &mut hierarchies[l];
            let cpu = &members[l].cpu;
            let block_mask = block_masks[l];
            for (op, &predicted) in ops.iter().zip(&predictions) {
                sched.step_op(
                    cpu, block_mask, op, predicted, &mut dside, icache, hierarchy,
                );
            }
        }
    }

    Ok(scheds
        .into_iter()
        .enumerate()
        .map(|(l, sched)| {
            let activity = sched.finish();
            SimResult {
                cycles: activity.cycles,
                activity,
                dcache: *dcache.stats(l),
                icache: *icaches[l].stats(),
                memory_accesses: hierarchies[l].memory_accesses(),
                branch_accuracy: predictor.accuracy(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Processor;
    use wp_workloads::{Benchmark, IterBlockSource, TraceConfig, TraceGenerator};

    /// A heterogeneous fig10-shaped batch: one d-side, varied i-sides and
    /// core/latency parameters.
    fn members() -> Vec<LaneMember> {
        let base = LaneMember {
            cpu: CpuConfig::default(),
            l1d: L1Config::paper_dcache(),
            l1i: L1Config::paper_icache(),
            ipolicy: ICachePolicy::Parallel,
        };
        vec![
            base,
            LaneMember {
                ipolicy: ICachePolicy::WayPredict,
                ..base
            },
            LaneMember {
                l1i: L1Config::paper_icache().with_associativity(2),
                ipolicy: ICachePolicy::WayPredict,
                ..base
            },
            LaneMember {
                l1d: L1Config::paper_dcache().with_base_latency(2),
                ..base
            },
            LaneMember {
                cpu: CpuConfig {
                    issue_width: 4,
                    ..CpuConfig::default()
                },
                ..base
            },
        ]
    }

    #[test]
    fn lane_batch_matches_scalar_runs_bit_for_bit() {
        let config = TraceConfig::new(Benchmark::Gcc).with_ops(20_000);
        for dpolicy in [
            DCachePolicy::Parallel,
            DCachePolicy::SelDmWayPredict,
            DCachePolicy::WayPredictPc,
        ] {
            let members = members();
            let batched = run_lane_batch(
                dpolicy,
                &members,
                &mut IterBlockSource(TraceGenerator::new(config)),
            )
            .expect("valid batch");
            assert_eq!(batched.len(), members.len());
            for (l, member) in members.iter().enumerate() {
                let scalar =
                    Processor::with_l1(member.cpu, member.l1d, dpolicy, member.l1i, member.ipolicy)
                        .expect("valid config")
                        .run(TraceGenerator::new(config));
                assert!(
                    batched[l].exact_eq(&scalar),
                    "{dpolicy:?} lane {l} diverged: {:?}",
                    batched[l].diff(&scalar)
                );
            }
        }
    }

    #[test]
    fn width_one_batch_is_legal() {
        let config = TraceConfig::new(Benchmark::Li).with_ops(5_000);
        let member = members()[0];
        let batched = run_lane_batch(
            DCachePolicy::Sequential,
            &[member],
            &mut IterBlockSource(TraceGenerator::new(config)),
        )
        .expect("valid batch");
        let scalar = Processor::with_l1(
            member.cpu,
            member.l1d,
            DCachePolicy::Sequential,
            member.l1i,
            member.ipolicy,
        )
        .expect("valid config")
        .run(TraceGenerator::new(config));
        assert!(batched[0].exact_eq(&scalar));
    }

    #[test]
    fn invalid_member_config_is_an_error() {
        let mut bad = members()[0];
        bad.l1i = bad.l1i.with_associativity(3);
        assert!(run_lane_batch(
            DCachePolicy::Parallel,
            &[bad],
            &mut IterBlockSource(std::iter::empty())
        )
        .is_err());
    }
}
