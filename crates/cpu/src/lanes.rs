//! Config-parallel lane simulation: N machine configurations, one walk of
//! the op stream.
//!
//! Gang scheduling (`wp-experiments`) already materializes each workload
//! stream once and replays it to every configuration in the gang. The lane
//! runner goes one step further for configurations that share a d-cache
//! policy and geometry: it drives up to [`wp_cache::MAX_LANES`] of them
//! through **one** walk of the stream — the same walker
//! ([`crate::pipeline`]) that [`crate::Processor::run_blocks`] runs over a
//! single lane. Per op, the walk makes one branch-predictor update (the
//! predictor's state depends only on the op stream, so every lane sees the
//! same direction sequence) and one d-cache access per distinct d-cache
//! state through [`wp_cache::LaneDCache`] (lanes that differ only in base
//! latency share one controller), then steps each lane's scheduler with
//! its own outcome.
//!
//! Everything timing-dependent stays per lane: the i-cache (its fetch
//! sequence depends on the lane's scheduling), the memory hierarchy, and
//! the scheduler itself. Because the d-cache state depends only on the
//! `(address, kind)` program order — never on timing — and the d-access
//! does not touch the hierarchy (the miss's L2 access happens inside the
//! lane's step, in per-lane program order), every lane's result is
//! bit-identical to a [`crate::Processor`] run of the same configuration.
//! `tests/lanes.rs` holds both to the `wp-oracle` reference simulator, and
//! the conformance harness holds the engine to it.
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
use wp_predictors::HybridBranchPredictor;
use wp_workloads::{OpBlockSource, OpKind};

use crate::pipeline::{walk, CpuConfig, Lane};
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
/// bit-identical to a [`crate::Processor`] run of that configuration over
/// the same op sequence.
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
/// groups by `(policy, geometry)` before calling this — or if a member's
/// core is one the scheduler cannot model
/// ([`CpuConfig::assert_supported`]).
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
    let d_configs: Vec<L1Config> = members.iter().map(|m| m.l1d).collect();
    let mut dcache = LaneDCache::new(&d_configs, dpolicy)?;
    let mut lanes = members
        .iter()
        .map(|m| {
            Ok(Lane::new(
                m.cpu,
                ICacheController::new(m.l1i, m.ipolicy)?,
                MemoryHierarchy::new(HierarchyConfig::default())
                    .expect("the Table 1 hierarchy configuration is valid"),
            ))
        })
        .collect::<Result<Vec<_>, ConfigError>>()?;
    let mut predictor = HybridBranchPredictor::default();

    let mut full = [DAccessOutcome::default(); MAX_LANES];
    let full = &mut full[..members.len()];
    walk(source, &mut predictor, &mut lanes, |op, out| {
        match op.kind {
            OpKind::Load { addr, approx_addr } => {
                dcache.load_kernel::<K>(op.pc, addr, approx_addr, full);
            }
            OpKind::Store { addr } => dcache.store(op.pc, addr, full),
            _ => return,
        }
        for (out, &outcome) in out.iter_mut().zip(full.iter()) {
            *out = outcome.into();
        }
    });

    Ok(lanes
        .iter_mut()
        .enumerate()
        .map(|(l, lane)| lane.finish(*dcache.stats(l), predictor.accuracy()))
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
    fn lane_batch_matches_processor_runs_bit_for_bit() {
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
                let single =
                    Processor::with_l1(member.cpu, member.l1d, dpolicy, member.l1i, member.ipolicy)
                        .expect("valid config")
                        .run(TraceGenerator::new(config));
                assert!(
                    batched[l].exact_eq(&single),
                    "{dpolicy:?} lane {l} diverged: {:?}",
                    batched[l].diff(&single)
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
        let single = Processor::with_l1(
            member.cpu,
            member.l1d,
            DCachePolicy::Sequential,
            member.l1i,
            member.ipolicy,
        )
        .expect("valid config")
        .run(TraceGenerator::new(config));
        assert!(batched[0].exact_eq(&single));
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
