//! The energy-aware L1 instruction-cache controller.
//!
//! Section 2.3: i-cache way-prediction is folded into the fetch engine so it
//! adds no delay — the way of the *next* fetch is predicted while the
//! current fetch completes, using the BTB for taken branches, the SAWP for
//! sequential and not-taken fetches, and the RAS for returns. Fetches with
//! no prediction (BTB misses, branch-misprediction restarts) default to a
//! conventional parallel access.
//!
//! [`ICacheController`] specialises the shared [`AccessCore`] with the
//! fetch-engine prediction stack exposed as a [`WaySelect`] policy
//! ([`IWaySelect`]); the probe, latency, and energy accounting live in
//! [`crate::access`].

use wp_energy::{Energy, PredictionTableEnergy};
use wp_mem::{Placement, SetAssocCache, WayIndex};
use wp_predictors::{Btb, ReturnAddressStack, Sawp};

use crate::access::{
    AccessCore, CoreAccess, Observation, ProbeOutcome, Selection, WaySelect, WaySelection,
    WaySource,
};
use crate::config::{ConfigError, L1Config};
use crate::policy::ICachePolicy;
use crate::stats::ICacheStats;

/// Address type re-used from the memory substrate.
pub type Addr = wp_mem::Addr;

/// How the fetch engine arrived at the PC being fetched, which determines
/// the way-prediction source (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// The next sequential block after the fetch at `prev_pc` (no taken
    /// branch in between): the SAWP supplies the way.
    Sequential {
        /// PC of the previous fetch.
        prev_pc: Addr,
    },
    /// The fall-through path of a predicted-not-taken branch at the end of
    /// the fetch at `prev_pc`: also a SAWP lookup.
    NotTakenBranch {
        /// PC of the previous fetch.
        prev_pc: Addr,
    },
    /// The target of a predicted-taken branch or call at `branch_pc`: the
    /// BTB supplies both target and way.
    TakenBranch {
        /// PC of the branch instruction.
        branch_pc: Addr,
    },
    /// The target of a call at `branch_pc`; identical to a taken branch for
    /// way-prediction, and additionally pushes `return_pc` (with its current
    /// i-cache way) onto the return address stack.
    Call {
        /// PC of the call instruction.
        branch_pc: Addr,
        /// Address execution resumes at after the callee returns.
        return_pc: Addr,
    },
    /// A function return: the RAS supplies the way it recorded at call time.
    Return,
    /// A fetch with no usable prediction — a branch-misprediction restart or
    /// any other pipeline redirect. Defaults to parallel access.
    Redirect,
}

/// How a fetch was serviced — the classes of Figure 10's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IAccessClass {
    /// Way correctly predicted by the SAWP.
    SawpCorrect,
    /// Way correctly predicted by the branch-predictor structures (BTB or
    /// RAS).
    BtbCorrect,
    /// No prediction available: conventional parallel access.
    NoPrediction,
    /// Predicted way was wrong; a corrective second probe was needed.
    Mispredicted,
}

/// The result of one i-cache fetch access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IAccessOutcome {
    /// True if the block was resident.
    pub hit: bool,
    /// L1 latency in cycles (misses additionally pay the L2/memory
    /// latency).
    pub latency: u64,
    /// Energy dissipated, in model units.
    pub energy: Energy,
    /// Breakdown class.
    pub class: IAccessClass,
    /// Number of data ways probed.
    pub ways_probed: usize,
    /// The way the block resides in after the access.
    pub way: WayIndex,
}

impl IAccessOutcome {
    /// True if the fetch hit in the L1 i-cache.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// True if the fetch missed.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// Per-fetch context handed to the fetch-engine way-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchCtx {
    /// PC being fetched.
    pub pc: Addr,
    /// How the fetch engine produced the PC.
    pub kind: FetchKind,
}

/// Number of BTB entries (typical of the era's fetch engines). Public so
/// reference implementations (the `wp-oracle` conformance simulator) build
/// an identically sized fetch engine.
pub const BTB_ENTRIES: usize = 512;
/// Depth of the return address stack; public for the same reason.
pub const RAS_DEPTH: usize = 16;

/// The fetch-engine prediction stack: BTB, SAWP, and RAS with way fields,
/// driven by an [`ICachePolicy`].
#[derive(Debug, Clone)]
pub struct IWaySelect {
    policy: ICachePolicy,
    /// Energy of one way-field access, precomputed from the
    /// [`PredictionTableEnergy`] model at construction (the analytic model
    /// is too slow to evaluate per fetch).
    way_field_energy: Energy,
    btb: Btb,
    sawp: Sawp,
    ras: ReturnAddressStack,
}

impl IWaySelect {
    /// Builds the fetch-engine stack for `config` under `policy`.
    pub fn new(config: &L1Config, policy: ICachePolicy) -> Self {
        Self {
            policy,
            way_field_energy: PredictionTableEnergy::new(
                config.prediction_table_entries,
                Sawp::bits_per_entry(config.associativity),
            )
            .access_energy(),
            btb: Btb::new(BTB_ENTRIES),
            sawp: Sawp::new(config.prediction_table_entries),
            ras: ReturnAddressStack::new(RAS_DEPTH),
        }
    }

    /// The BTB's predicted target for a taken branch at `branch_pc`, if any.
    pub fn predicted_target(&self, branch_pc: Addr) -> Option<Addr> {
        self.btb.lookup(branch_pc).map(|e| e.target)
    }
}

impl WaySelect for IWaySelect {
    type Ctx = FetchCtx;

    fn select(&mut self, ctx: &FetchCtx) -> Selection {
        // The way prediction is produced by the previous access's
        // bookkeeping (BTB/SAWP/RAS), so it is available with no added
        // delay; its energy is charged with the way-field update in
        // [`Self::train`].
        if self.policy == ICachePolicy::Parallel {
            return Selection::parallel();
        }
        let (predicted, source) = match ctx.kind {
            FetchKind::Sequential { prev_pc } | FetchKind::NotTakenBranch { prev_pc } => {
                (self.sawp.predict(prev_pc), WaySource::Sawp)
            }
            FetchKind::TakenBranch { branch_pc } | FetchKind::Call { branch_pc, .. } => (
                self.btb.lookup(branch_pc).and_then(|e| e.way),
                WaySource::Btb,
            ),
            FetchKind::Return => (self.ras.pop().and_then(|(_, way)| way), WaySource::Ras),
            FetchKind::Redirect => (None, WaySource::None),
        };
        match predicted {
            Some(way) => Selection {
                choice: WaySelection::Predicted(way),
                source,
                energy: 0.0,
            },
            None => Selection::parallel(),
        }
    }

    fn train(&mut self, ctx: &FetchCtx, observed: Observation, cache: &SetAssocCache) -> Energy {
        // Train the structures with the way the block actually occupies now.
        // The BTB and RAS themselves exist in the conventional fetch engine
        // too (they supply targets); only the way fields and the SAWP are
        // part of the way-prediction mechanism, so only those incur the
        // prediction-energy overhead.
        let way_predicting = self.policy == ICachePolicy::WayPredict;
        let mut energy = 0.0;
        if way_predicting {
            energy += self.way_field_energy;
        }
        match ctx.kind {
            FetchKind::Sequential { prev_pc } | FetchKind::NotTakenBranch { prev_pc } => {
                if way_predicting {
                    self.sawp.update(prev_pc, observed.way);
                }
            }
            FetchKind::TakenBranch { branch_pc } => {
                self.btb
                    .update(branch_pc, ctx.pc, way_predicting.then_some(observed.way));
            }
            FetchKind::Call {
                branch_pc,
                return_pc,
            } => {
                self.btb
                    .update(branch_pc, ctx.pc, way_predicting.then_some(observed.way));
                let return_way = way_predicting.then(|| cache.probe(return_pc)).flatten();
                self.ras.push(return_pc, return_way);
            }
            FetchKind::Return | FetchKind::Redirect => {}
        }
        energy
    }
}

/// The energy-aware L1 i-cache with fetch-integrated way-prediction.
///
/// # Example
///
/// ```
/// use wp_cache::{FetchKind, ICacheController, ICachePolicy, L1Config};
///
/// # fn main() -> Result<(), wp_cache::ConfigError> {
/// let mut icache = ICacheController::new(L1Config::paper_icache(), ICachePolicy::WayPredict)?;
/// // A cold sequential fetch: no SAWP entry yet, so it is a parallel access.
/// let first = icache.fetch(0x40_0000, FetchKind::Redirect);
/// assert!(first.is_miss());
/// // The block that follows trains the SAWP...
/// let second = icache.fetch(0x40_0020, FetchKind::Sequential { prev_pc: 0x40_0000 });
/// // ...so fetching the same pair again probes a single predicted way.
/// icache.fetch(0x40_0000, FetchKind::Redirect);
/// let predicted = icache.fetch(0x40_0020, FetchKind::Sequential { prev_pc: 0x40_0000 });
/// assert!(predicted.is_hit());
/// assert_eq!(predicted.ways_probed, 1);
/// # let _ = (first, second);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ICacheController {
    core: AccessCore,
    policy: ICachePolicy,
    select: IWaySelect,
    stats: ICacheStats,
}

impl ICacheController {
    /// Builds a controller for `config` operating under `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent.
    pub fn new(config: L1Config, policy: ICachePolicy) -> Result<Self, ConfigError> {
        Ok(Self {
            core: AccessCore::new(config)?,
            policy,
            select: IWaySelect::new(&config, policy),
            stats: ICacheStats::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &L1Config {
        self.core.config()
    }

    /// The policy in use.
    pub fn policy(&self) -> ICachePolicy {
        self.policy
    }

    /// The energy model used to charge accesses.
    pub fn energy_model(&self) -> &wp_energy::CacheEnergyModel {
        self.core.energy_model()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ICacheStats {
        &self.stats
    }

    /// Resets the statistics, keeping cache contents and predictor state.
    pub fn reset_stats(&mut self) {
        self.stats = ICacheStats::default();
    }

    /// The BTB's predicted target for a taken branch at `branch_pc`, if the
    /// fetch engine has one (used by the processor model to decide whether a
    /// taken branch causes a fetch bubble).
    pub fn predicted_target(&self, branch_pc: Addr) -> Option<Addr> {
        self.select.predicted_target(branch_pc)
    }

    /// Fetches the instruction block containing `pc`, with `kind` describing
    /// how the fetch engine produced the PC.
    ///
    /// On a miss the block is filled; the caller adds L2/memory latency.
    pub fn fetch(&mut self, pc: Addr, kind: FetchKind) -> IAccessOutcome {
        self.stats.fetches += 1;
        let ctx = FetchCtx { pc, kind };
        let access = self
            .core
            .read(&mut self.select, &ctx, pc, Placement::SetAssociative);
        if !access.result.hit {
            self.stats.fetch_misses += 1;
        }

        let class = classify(&access);
        match class {
            IAccessClass::SawpCorrect => self.stats.sawp_correct += 1,
            IAccessClass::BtbCorrect => {
                self.stats.btb_correct += 1;
                if access.selection.source == WaySource::Ras {
                    self.stats.ras_correct += 1;
                }
            }
            IAccessClass::NoPrediction => self.stats.no_prediction += 1,
            IAccessClass::Mispredicted => self.stats.mispredicted += 1,
        }
        self.stats.cache_energy += access.probe.energy;
        self.stats.prediction_energy += access.prediction_energy;

        IAccessOutcome {
            hit: access.result.hit,
            latency: access.probe.latency,
            energy: access.energy(),
            class,
            ways_probed: access.probe.ways_probed,
            way: access.result.way,
        }
    }
}

/// Maps a resolved probe onto the Figure 10 breakdown classes.
fn classify(access: &CoreAccess) -> IAccessClass {
    match access.probe.outcome {
        ProbeOutcome::Mispredicted => IAccessClass::Mispredicted,
        ProbeOutcome::SingleWay => {
            if access.selection.source.is_branch_structure() {
                IAccessClass::BtbCorrect
            } else {
                IAccessClass::SawpCorrect
            }
        }
        // Parallel (and the unused sequential probe) carry no prediction.
        ProbeOutcome::Parallel | ProbeOutcome::Sequential => IAccessClass::NoPrediction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(policy: ICachePolicy) -> ICacheController {
        ICacheController::new(L1Config::paper_icache(), policy).expect("valid config")
    }

    #[test]
    fn parallel_policy_never_predicts() {
        let mut c = controller(ICachePolicy::Parallel);
        for i in 0..10u64 {
            let out = c.fetch(
                0x40_0000 + i * 32,
                FetchKind::Sequential { prev_pc: 0x40_0000 },
            );
            assert_eq!(out.class, IAccessClass::NoPrediction);
            assert_eq!(out.ways_probed, 4);
        }
        assert_eq!(c.stats().no_prediction, 10);
    }

    #[test]
    fn sawp_learns_sequential_successor_ways() {
        let mut c = controller(ICachePolicy::WayPredict);
        let a = 0x40_0000;
        let b = 0x40_0020;
        c.fetch(a, FetchKind::Redirect);
        c.fetch(b, FetchKind::Sequential { prev_pc: a });
        // Second time around the SAWP predicts b's way.
        c.fetch(a, FetchKind::Redirect);
        let out = c.fetch(b, FetchKind::Sequential { prev_pc: a });
        assert_eq!(out.class, IAccessClass::SawpCorrect);
        assert_eq!(out.ways_probed, 1);
        assert_eq!(out.latency, 1);
    }

    #[test]
    fn btb_supplies_ways_for_taken_branches() {
        let mut c = controller(ICachePolicy::WayPredict);
        let branch_pc = 0x40_0104;
        let target = 0x40_2000;
        // First taken fetch trains the BTB (the fetch itself had no
        // prediction, so it is a parallel access).
        let first = c.fetch(target, FetchKind::TakenBranch { branch_pc });
        assert_eq!(first.class, IAccessClass::NoPrediction);
        let second = c.fetch(target, FetchKind::TakenBranch { branch_pc });
        assert_eq!(second.class, IAccessClass::BtbCorrect);
        assert_eq!(second.ways_probed, 1);
        assert_eq!(c.predicted_target(branch_pc), Some(target));
    }

    #[test]
    fn ras_supplies_ways_for_returns() {
        let mut c = controller(ICachePolicy::WayPredict);
        let call_pc = 0x40_0104;
        let callee = 0x40_3000;
        let return_pc = 0x40_0108;
        // Make the return block resident so the call can record its way.
        c.fetch(return_pc, FetchKind::Redirect);
        c.fetch(
            callee,
            FetchKind::Call {
                branch_pc: call_pc,
                return_pc,
            },
        );
        let ret = c.fetch(return_pc, FetchKind::Return);
        assert_eq!(ret.class, IAccessClass::BtbCorrect);
        assert_eq!(ret.ways_probed, 1);
        assert_eq!(c.stats().ras_correct, 1, "RAS subset counter");
        assert_eq!(c.stats().btb_correct, 1);
    }

    #[test]
    fn returns_without_a_stack_entry_default_to_parallel() {
        let mut c = controller(ICachePolicy::WayPredict);
        let out = c.fetch(0x40_0500, FetchKind::Return);
        assert_eq!(out.class, IAccessClass::NoPrediction);
    }

    #[test]
    fn redirects_default_to_parallel() {
        let mut c = controller(ICachePolicy::WayPredict);
        let out = c.fetch(0x40_0600, FetchKind::Redirect);
        assert_eq!(out.class, IAccessClass::NoPrediction);
        assert_eq!(out.ways_probed, 4);
    }

    #[test]
    fn misprediction_needs_second_probe() {
        let mut c = controller(ICachePolicy::WayPredict);
        let a = 0x40_0000;
        let b = 0x40_0020;
        // Train the SAWP: after a comes b in some way.
        c.fetch(a, FetchKind::Redirect);
        c.fetch(b, FetchKind::Sequential { prev_pc: a });
        // Evict b by filling its set with conflicting blocks fetched via
        // redirects, so b moves to a different way when it returns.
        let set_stride = 128 * 32;
        for i in 1..=4u64 {
            c.fetch(b + i * set_stride, FetchKind::Redirect);
        }
        c.fetch(a, FetchKind::Redirect);
        let out = c.fetch(b, FetchKind::Sequential { prev_pc: a });
        // b was evicted, so this is either a miss (single-way probe) or, if
        // refilled in a different way, a misprediction; both are legal here,
        // but a misprediction must cost an extra cycle and probe.
        if out.class == IAccessClass::Mispredicted {
            assert_eq!(out.ways_probed, 2);
            assert_eq!(out.latency, 2);
        } else {
            assert!(out.is_miss());
        }
    }

    #[test]
    fn way_predicted_fetches_save_energy_over_parallel() {
        let mut wp = controller(ICachePolicy::WayPredict);
        let mut par = controller(ICachePolicy::Parallel);
        // Warm both with a simple loop of sequential fetches.
        let pcs: Vec<Addr> = (0..16u64).map(|i| 0x40_0000 + i * 32).collect();
        for _ in 0..8 {
            let mut prev = *pcs.last().expect("non-empty");
            for &pc in &pcs {
                wp.fetch(pc, FetchKind::Sequential { prev_pc: prev });
                par.fetch(pc, FetchKind::Sequential { prev_pc: prev });
                prev = pc;
            }
        }
        let wp_energy = wp.stats().total_energy();
        let par_energy = par.stats().total_energy();
        assert!(
            wp_energy < 0.5 * par_energy,
            "way-predicted i-cache should save well over half the energy \
             ({wp_energy} vs {par_energy})"
        );
        assert!(wp.stats().way_prediction_accuracy() > 0.8);
    }

    #[test]
    fn breakdown_counts_cover_all_fetches() {
        let mut c = controller(ICachePolicy::WayPredict);
        let mut prev = 0x40_0000;
        for i in 0..200u64 {
            let pc = 0x40_0000 + (i % 50) * 32;
            let kind = match i % 5 {
                0 => FetchKind::Redirect,
                1 => FetchKind::TakenBranch {
                    branch_pc: prev + 4,
                },
                2 => FetchKind::Return,
                3 => FetchKind::NotTakenBranch { prev_pc: prev },
                _ => FetchKind::Sequential { prev_pc: prev },
            };
            c.fetch(pc, kind);
            prev = pc;
        }
        let s = c.stats();
        assert_eq!(
            s.sawp_correct + s.btb_correct + s.no_prediction + s.mispredicted,
            s.fetches
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = L1Config::paper_icache().with_base_latency(0);
        assert!(ICacheController::new(bad, ICachePolicy::WayPredict).is_err());
    }
}
