//! The energy-aware L1 data-cache controller.
//!
//! [`DCacheController`] pairs the shared [`AccessCore`] with the paper's
//! d-side prediction stack: the selective-DM table, the victim list, and
//! the PC/XOR way-prediction tables. A load selects its way from the stack
//! under a compile-time d-cache policy, reads through the core, trains the
//! stack, and counts its Figure 6/7/8 class and energy into
//! [`DCacheStats`], all in one function; the caller gets back only the hit
//! and the latency. The probe pricing lives in [`crate::access`].

use wp_energy::{Energy, PredictionTableEnergy};
use wp_mem::{AccessResult, Placement, WayIndex};
use wp_predictors::{
    MappingPrediction, PcWayPredictor, SelDmPredictor, VictimList, XorWayPredictor,
};

use crate::access::{AccessCore, ProbeOutcome, Selection, WaySelection, WaySource};
use crate::config::{ConfigError, L1Config};
use crate::policy::{DCachePolicy, DPolicyKernel};
use crate::stats::DCacheStats;

/// Address type re-used from the memory substrate.
pub type Addr = wp_mem::Addr;

/// How a load was serviced — the classes of the paper's access-breakdown
/// graphs (Figures 6, 7 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DAccessClass {
    /// Probed only the direct-mapping way (selective-DM, non-conflicting).
    DirectMapped,
    /// Conventional parallel probe of all ways.
    Parallel,
    /// Probed a single predicted way.
    WayPredicted,
    /// Serialized tag-then-data access.
    Sequential,
    /// Wrong single-way probe (wrong way, or wrongly predicted
    /// direct-mapped); needed a corrective second probe.
    Mispredicted,
}

/// The result of one d-cache access: what the pipeline needs to schedule
/// it. The access's class and energy are counted in [`DCacheStats`].
/// `Default` (a free miss) sizes per-lane outcome buffers; every slot is
/// overwritten before it is read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DAccessOutcome {
    /// True if the block was resident in the L1.
    pub hit: bool,
    /// L1 latency in cycles (misses additionally pay the L2/memory latency,
    /// which the caller obtains from [`wp_mem::MemoryHierarchy`]).
    pub latency: u64,
}

impl DAccessOutcome {
    /// True if the access hit in the L1.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// True if the access missed and the block was filled from below.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// The d-cache prediction stack: selective-DM table, victim list, and the
/// PC/XOR way-prediction tables, driven by a [`DCachePolicy`].
#[derive(Debug, Clone)]
struct DWaySelect {
    policy: DCachePolicy,
    /// Energy of one prediction-table access, precomputed from the
    /// [`PredictionTableEnergy`] model at construction (the model's
    /// analytic evaluation is too slow for the per-access hot path).
    table_energy: Energy,
    /// Energy of one victim-list access, precomputed likewise.
    victim_energy: Energy,
    /// The selective-DM prediction made by the latest way selection, reused
    /// by the training step of the same access so the counter table is
    /// read once per load (the counters are only mutated by training
    /// itself, after this value is consumed).
    last_seldm: MappingPrediction,
    seldm: SelDmPredictor,
    victims: VictimList,
    pc_way: PcWayPredictor,
    xor_way: XorWayPredictor,
}

impl DWaySelect {
    /// Builds the prediction stack for `config` under `policy`.
    fn new(config: &L1Config, policy: DCachePolicy) -> Self {
        let way_bits = PcWayPredictor::bits_per_entry(config.associativity);
        Self {
            policy,
            table_energy: PredictionTableEnergy::new(
                config.prediction_table_entries,
                // Selective-DM counter (2 bits) plus the optional way field.
                SelDmPredictor::BITS_PER_ENTRY + way_bits,
            )
            .access_energy(),
            victim_energy: PredictionTableEnergy::new(
                config.victim_list_entries.next_power_of_two().max(2),
                32,
            )
            .access_energy(),
            last_seldm: MappingPrediction::SetAssociative,
            seldm: SelDmPredictor::new(config.prediction_table_entries),
            victims: VictimList::new(config.victim_list_entries, 2),
            pc_way: PcWayPredictor::new(config.prediction_table_entries),
            xor_way: XorWayPredictor::new(config.prediction_table_entries, config.block_bytes),
        }
    }

    /// Placement used when a miss fills the cache: selective-DM policies
    /// place non-conflicting blocks (per the victim list) in their
    /// direct-mapping way and conflicting blocks in their set-associative
    /// position; every other policy uses conventional LRU placement.
    #[inline]
    fn placement(&self, block_addr: wp_mem::BlockAddr) -> Placement {
        self.placement_policy(self.policy, block_addr)
    }

    /// [`DWaySelect::placement`] with the policy supplied by the caller —
    /// the monomorphized kernels pass a compile-time constant here, so the
    /// selective-DM test folds away.
    #[inline(always)]
    fn placement_policy(&self, policy: DCachePolicy, block_addr: wp_mem::BlockAddr) -> Placement {
        if !policy.uses_selective_dm() || self.victims.is_conflicting(block_addr) {
            Placement::SetAssociative
        } else {
            Placement::DirectMapped
        }
    }

    /// Records an eviction in the victim list (selective-DM only). Returns
    /// whether the block was newly flagged as conflicting, and the victim
    /// list energy charged.
    fn note_eviction(&mut self, block_addr: wp_mem::BlockAddr) -> (bool, Energy) {
        if self.policy.uses_selective_dm() {
            (self.victims.record_eviction(block_addr), self.victim_energy)
        } else {
            (false, 0.0)
        }
    }

    /// Chooses how to probe a load at `pc` whose direct-mapping way is
    /// `dm_way` under `policy`: the monomorphized kernels pass
    /// [`crate::DPolicyKernel::POLICY`], a compile-time constant, so the
    /// policy `match` folds to the one live arm.
    #[inline(always)]
    fn select_policy(
        &mut self,
        policy: DCachePolicy,
        pc: Addr,
        approx_addr: Addr,
        dm_way: WayIndex,
    ) -> Selection {
        let table = self.table_energy;
        match policy {
            DCachePolicy::Parallel => Selection::parallel(),
            DCachePolicy::Sequential => Selection {
                choice: WaySelection::Sequential,
                source: WaySource::None,
                energy: 0.0,
            },
            DCachePolicy::PerfectWayPredict => Selection {
                choice: WaySelection::Oracle,
                source: WaySource::Oracle,
                energy: 0.0,
            },
            DCachePolicy::WayPredictPc => Self::from_way_table(self.pc_way.predict(pc), table),
            DCachePolicy::WayPredictXor => {
                Self::from_way_table(self.xor_way.predict(approx_addr), table)
            }
            DCachePolicy::SelDmParallel
            | DCachePolicy::SelDmWayPredict
            | DCachePolicy::SelDmSequential => {
                self.last_seldm = self.seldm.predict(pc);
                if self.last_seldm == MappingPrediction::DirectMapped {
                    return Selection {
                        choice: WaySelection::DirectMapped(dm_way),
                        source: WaySource::SelectiveDm,
                        energy: table,
                    };
                }
                // Predicted conflicting: fall back to the configured scheme.
                match policy {
                    DCachePolicy::SelDmParallel => Selection {
                        choice: WaySelection::Parallel,
                        source: WaySource::None,
                        energy: table,
                    },
                    DCachePolicy::SelDmSequential => Selection {
                        choice: WaySelection::Sequential,
                        source: WaySource::None,
                        energy: table,
                    },
                    _ => {
                        let mut fallback = Self::from_way_table(self.pc_way.predict(pc), table);
                        fallback.energy += table;
                        fallback
                    }
                }
            }
        }
    }

    /// Trains the prediction stack with the tag store's `result` for the
    /// load at `pc` under `policy`; see [`DWaySelect::select_policy`].
    /// Training costs no energy beyond the selection's lookup.
    #[inline(always)]
    fn train_policy(
        &mut self,
        policy: DCachePolicy,
        pc: Addr,
        approx_addr: Addr,
        result: &AccessResult,
    ) {
        // Way-table training with the way the block actually occupies now.
        match policy {
            DCachePolicy::WayPredictPc => self.pc_way.update(pc, result.way),
            DCachePolicy::WayPredictXor => self.xor_way.update(approx_addr, result.way),
            DCachePolicy::SelDmWayPredict
                if self.last_seldm == MappingPrediction::SetAssociative =>
            {
                self.pc_way.update(pc, result.way)
            }
            _ => {}
        }
        // Train the selective-DM counter on read hits, whatever handled the
        // access (Section 2.2.2).
        if policy.uses_selective_dm() && result.hit {
            if result.in_direct_mapped_way {
                self.seldm.record_direct_mapped_hit(pc);
            } else {
                self.seldm.record_set_associative_hit(pc);
            }
        }
    }

    /// A selection from a way-table lookup: probe the predicted way, or all
    /// ways when the entry is untrained.
    fn from_way_table(predicted: Option<WayIndex>, energy: Energy) -> Selection {
        Selection {
            choice: predicted.map_or(WaySelection::Parallel, WaySelection::Predicted),
            source: WaySource::WayTable,
            energy,
        }
    }
}

/// The energy-aware L1 d-cache.
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct DCacheController {
    core: AccessCore,
    policy: DCachePolicy,
    select: DWaySelect,
    stats: DCacheStats,
}

impl DCacheController {
    /// Builds a controller for `config` operating under `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent.
    pub fn new(config: L1Config, policy: DCachePolicy) -> Result<Self, ConfigError> {
        Ok(Self {
            core: AccessCore::new(config)?,
            policy,
            select: DWaySelect::new(&config, policy),
            stats: DCacheStats::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &L1Config {
        self.core.config()
    }

    /// The access policy in use.
    pub fn policy(&self) -> DCachePolicy {
        self.policy
    }

    /// The energy model used to charge accesses.
    pub fn energy_model(&self) -> &wp_energy::CacheEnergyModel {
        self.core.energy_model()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DCacheStats {
        &self.stats
    }

    /// Resets the statistics (cache contents and predictor state are kept,
    /// mirroring a warm-up / measurement split).
    pub fn reset_stats(&mut self) {
        self.stats = DCacheStats::default();
    }

    /// Miss rate over all accesses so far, as a percentage.
    pub fn miss_rate_percent(&self) -> f64 {
        self.stats.miss_rate_percent()
    }

    /// Services a load issued at `pc` for effective address `addr`, with
    /// `approx_addr` the XOR approximation of the address available early in
    /// the pipeline (pass `addr` when modelling a perfect approximation).
    ///
    /// On a miss the block is filled (write-allocate, placement decided by
    /// the selective-DM victim list where applicable); the caller is
    /// responsible for adding the L2/memory latency to the returned L1
    /// latency.
    ///
    /// Dispatches once to the monomorphized kernel matching the controller's
    /// policy; callers that hold the policy statically (the processor's
    /// per-policy run loops) use [`DCacheController::load_kernel`] directly
    /// and skip even this one dispatch.
    #[inline]
    pub fn load(&mut self, pc: Addr, addr: Addr, approx_addr: Addr) -> DAccessOutcome {
        crate::with_dpolicy_kernel!(self.policy, K => self.load_impl::<K>(pc, addr, approx_addr))
    }

    /// [`DCacheController::load`] through the monomorphized kernel `K`:
    /// straight-line code for exactly one policy, with every policy `match`
    /// (way selection, training, fill placement) folded at compile time.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `K::POLICY` matches the controller's runtime
    /// policy; in release builds a mismatched kernel silently accounts the
    /// access under `K::POLICY`'s rules.
    #[inline]
    pub fn load_kernel<K: DPolicyKernel>(
        &mut self,
        pc: Addr,
        addr: Addr,
        approx_addr: Addr,
    ) -> DAccessOutcome {
        debug_assert_eq!(K::POLICY, self.policy);
        self.load_impl::<K>(pc, addr, approx_addr)
    }

    /// The shared load body, generic over the compile-time policy: select
    /// the way, read through the core, train the stack, and count.
    #[inline(always)]
    fn load_impl<K: DPolicyKernel>(
        &mut self,
        pc: Addr,
        addr: Addr,
        approx_addr: Addr,
    ) -> DAccessOutcome {
        self.stats.loads += 1;
        let geometry = self.core.cache().geometry();
        let dm_way = geometry.direct_mapped_way(addr);
        let placement = self
            .select
            .placement_policy(K::POLICY, geometry.block_addr(addr));
        account_placement(&mut self.stats, K::POLICY, placement);

        let selection = self
            .select
            .select_policy(K::POLICY, pc, approx_addr, dm_way);
        let (result, probe) = self.core.read(addr, placement, selection.choice);
        self.select
            .train_policy(K::POLICY, pc, approx_addr, &result);
        if !result.hit {
            self.stats.load_misses += 1;
        }
        account_eviction(&mut self.stats, &mut self.select, result.evicted);
        account_selection(
            &mut self.stats,
            K::POLICY,
            probe.outcome,
            &selection,
            result.hit,
        );
        account_load_class(&mut self.stats, classify(probe.outcome, selection.choice));
        self.stats.cache_energy += probe.energy;
        self.stats.prediction_energy += selection.energy;

        DAccessOutcome {
            hit: result.hit,
            latency: probe.latency,
        }
    }

    /// Services a store issued at `pc` for `addr`.
    ///
    /// Stores check the tag array first and then write only the matching
    /// way, in every policy (end of Section 2.1), so they neither waste
    /// energy nor use prediction. Write misses allocate the block.
    #[inline]
    pub fn store(&mut self, _pc: Addr, addr: Addr) -> DAccessOutcome {
        self.stats.stores += 1;
        let block_addr = self.core.cache().geometry().block_addr(addr);
        let placement = self.select.placement(block_addr);
        let (result, probe) = self.core.write(addr, placement);
        if !result.hit {
            self.stats.store_misses += 1;
        }
        account_eviction(&mut self.stats, &mut self.select, result.evicted);
        self.stats.cache_energy += probe.energy;

        DAccessOutcome {
            hit: result.hit,
            latency: probe.latency,
        }
    }
}

/// Records an eviction in the victim list and the statistics.
#[inline]
fn account_eviction(
    stats: &mut DCacheStats,
    select: &mut DWaySelect,
    evicted: Option<wp_mem::CacheLine>,
) {
    if let Some(line) = evicted {
        stats.evictions += 1;
        if line.dirty {
            stats.dirty_evictions += 1;
        }
        let (flagged, energy) = select.note_eviction(line.block_addr);
        stats.prediction_energy += energy;
        if flagged {
            stats.conflicting_blocks_flagged += 1;
        }
    }
}

/// Victim-list coverage accounting at fill-placement time: under a
/// selective-DM policy, a set-associative placement means the victim list
/// flagged the block as conflicting.
#[inline]
fn account_placement(stats: &mut DCacheStats, policy: DCachePolicy, placement: Placement) {
    if policy.uses_selective_dm() && placement == Placement::SetAssociative {
        stats.victim_list_hits += 1;
    }
}

/// Predictor bookkeeping derived from the selection and its outcome.
#[inline]
fn account_selection(
    stats: &mut DCacheStats,
    policy: DCachePolicy,
    outcome: ProbeOutcome,
    selection: &Selection,
    hit: bool,
) {
    let single_way_correct = outcome == ProbeOutcome::SingleWay;
    if single_way_correct && hit {
        stats.single_way_load_hits += 1;
    }
    if policy.uses_selective_dm() && !matches!(selection.choice, WaySelection::DirectMapped(_)) {
        stats.seldm_predicted_sa += 1;
    }
    match selection.choice {
        WaySelection::Predicted(_) if selection.source == WaySource::WayTable => {
            stats.way_predictions += 1;
            if single_way_correct && hit {
                stats.way_predictions_correct += 1;
            }
        }
        WaySelection::DirectMapped(_) => {
            stats.seldm_predicted_dm += 1;
            if single_way_correct {
                stats.seldm_predicted_dm_correct += 1;
            }
        }
        _ => {}
    }
}

/// Figure 6 breakdown accounting.
#[inline]
fn account_load_class(stats: &mut DCacheStats, class: DAccessClass) {
    match class {
        DAccessClass::DirectMapped => stats.direct_mapped_accesses += 1,
        DAccessClass::Parallel => stats.parallel_accesses += 1,
        DAccessClass::WayPredicted => stats.way_predicted_accesses += 1,
        DAccessClass::Sequential => stats.sequential_accesses += 1,
        DAccessClass::Mispredicted => stats.mispredicted_accesses += 1,
    }
}

/// Maps a resolved probe onto the Figure 6 breakdown classes.
#[inline]
fn classify(outcome: ProbeOutcome, choice: WaySelection) -> DAccessClass {
    match outcome {
        ProbeOutcome::Parallel => DAccessClass::Parallel,
        ProbeOutcome::Sequential => DAccessClass::Sequential,
        ProbeOutcome::Mispredicted => DAccessClass::Mispredicted,
        ProbeOutcome::SingleWay => match choice {
            WaySelection::DirectMapped(_) => DAccessClass::DirectMapped,
            _ => DAccessClass::WayPredicted,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(policy: DCachePolicy) -> DCacheController {
        DCacheController::new(L1Config::paper_dcache(), policy).expect("valid config")
    }

    /// Addresses that map to the same set of the paper's 16 KB 4-way cache
    /// and, for consecutive `i`, to different direct-mapping ways.
    fn same_set_addr(i: u64) -> Addr {
        0x10_0000 + i * (128 * 32)
    }

    /// One load on fresh statistics: the returned stats count this load
    /// alone, so its class and its energy read straight off them.
    fn load_alone(
        c: &mut DCacheController,
        pc: Addr,
        addr: Addr,
        approx_addr: Addr,
    ) -> (DAccessOutcome, DCacheStats) {
        c.reset_stats();
        let out = c.load(pc, addr, approx_addr);
        (out, *c.stats())
    }

    /// The cache energy of a hit that probed `ways` single data ways.
    fn ways_read(c: &DCacheController, ways: usize) -> Energy {
        c.energy_model().n_way_read_energy(ways)
    }

    #[test]
    fn parallel_policy_probes_all_ways() {
        let mut c = controller(DCachePolicy::Parallel);
        let model = *c.energy_model();
        let (out, s) = load_alone(&mut c, 0x400, 0x8000, 0x8000);
        assert!(out.is_miss());
        assert_eq!(s.parallel_accesses, 1);
        let refill = model.data_way_write_energy();
        assert_eq!(s.cache_energy, model.parallel_read_energy() + refill);
        let (out, s) = load_alone(&mut c, 0x400, 0x8000, 0x8000);
        assert!(out.is_hit());
        assert_eq!(s.cache_energy, model.parallel_read_energy());
        assert_eq!(out.latency, 1);
        assert_eq!(s.parallel_accesses, 1);
    }

    #[test]
    fn sequential_policy_pays_latency_but_probes_one_way() {
        let mut c = controller(DCachePolicy::Sequential);
        c.load(0x400, 0x8000, 0x8000);
        let (out, s) = load_alone(&mut c, 0x400, 0x8000, 0x8000);
        assert!(out.is_hit());
        assert_eq!(s.cache_energy, ways_read(&c, 1));
        assert_eq!(out.latency, 2);
        assert_eq!(s.sequential_accesses, 1);
        // A sequential hit costs far less energy than a parallel hit.
        let mut p = controller(DCachePolicy::Parallel);
        p.load(0x400, 0x8000, 0x8000);
        let (_, parallel_hit) = load_alone(&mut p, 0x400, 0x8000, 0x8000);
        assert!(s.total_energy() < 0.35 * parallel_hit.total_energy());
    }

    #[test]
    fn pc_way_prediction_learns_and_saves_energy() {
        let mut c = controller(DCachePolicy::WayPredictPc);
        // Cold: no prediction -> parallel.
        let (_, first) = load_alone(&mut c, 0x400, 0x8000, 0x8000);
        assert_eq!(first.parallel_accesses, 1);
        // Trained: the same PC re-accesses the same block.
        let (second, s) = load_alone(&mut c, 0x400, 0x8000, 0x8000);
        assert_eq!(s.way_predicted_accesses, 1);
        assert_eq!(s.cache_energy, ways_read(&c, 1));
        assert_eq!(second.latency, 1);
        assert!(c.stats().way_prediction_accuracy() > 0.99);
    }

    #[test]
    fn way_misprediction_costs_extra_probe_and_cycle() {
        let mut c = controller(DCachePolicy::WayPredictPc);
        // Train the PC on a block in way 0 of set 0, then move it to a
        // different block that lands in a different way.
        let a = same_set_addr(0);
        let b = same_set_addr(1);
        c.load(0x400, a, a);
        c.load(0x400, a, a);
        c.load(0x900, b, b); // bring b in (different PC)
        let (out, s) = load_alone(&mut c, 0x400, b, b); // PC 0x400 still predicts a's way
        assert!(out.is_hit());
        assert_eq!(s.mispredicted_accesses, 1);
        assert_eq!(s.cache_energy, ways_read(&c, 2));
        assert_eq!(out.latency, 2);
    }

    #[test]
    fn xor_prediction_uses_the_approximate_address() {
        let mut c = controller(DCachePolicy::WayPredictXor);
        let addr = 0x8000;
        c.load(0x400, addr, addr);
        // A wrong approximation indexes a cold entry: parallel access.
        let (_, wrong) = load_alone(&mut c, 0x400, addr, addr + 0x40);
        assert_eq!(wrong.parallel_accesses, 1);
        // A correct approximation finds the trained entry.
        let (_, right) = load_alone(&mut c, 0x400, addr, addr);
        assert_eq!(right.way_predicted_accesses, 1);
    }

    #[test]
    fn seldm_default_is_direct_mapped_and_places_blocks_in_dm_way() {
        let mut c = controller(DCachePolicy::SelDmWayPredict);
        let addr = same_set_addr(2); // direct-mapping way 2
        let (out, s) = load_alone(&mut c, 0x400, addr, addr);
        assert!(out.is_miss());
        assert_eq!(s.direct_mapped_accesses, 1);
        assert_eq!(
            c.core.cache().probe(addr),
            Some(2),
            "block must be placed in its direct-mapping way"
        );
        let (out, s) = load_alone(&mut c, 0x400, addr, addr);
        assert!(out.is_hit());
        assert_eq!(s.direct_mapped_accesses, 1);
        assert_eq!(s.cache_energy, ways_read(&c, 1));
        assert_eq!(out.latency, 1);
    }

    #[test]
    fn repeated_dm_conflicts_are_flagged_and_switch_to_sa_mapping() {
        // Two blocks with the same direct-mapping way thrash until the
        // victim list flags them; after that they coexist in the set and the
        // conflicting loads are handled by the fallback scheme.
        let mut c = controller(DCachePolicy::SelDmParallel);
        let stride = 128 * 32 * 4; // same set, same DM way, different tags
        let a = 0x10_0000;
        let b = a + stride;
        for _ in 0..12 {
            c.load(0x400, a, a);
            c.load(0x404, b, b);
        }
        assert!(
            c.stats().conflicting_blocks_flagged > 0,
            "victim list must flag the thrashing blocks"
        );
        // Once both PCs' counters flip to set-associative, the accesses stop
        // missing: warm up a little more, then measure.
        c.reset_stats();
        for _ in 0..20 {
            c.load(0x400, a, a);
            c.load(0x404, b, b);
        }
        let s = c.stats();
        assert_eq!(s.load_misses, 0, "conflicting blocks should now coexist");
        assert!(
            s.parallel_accesses > 0,
            "conflicting loads use the fallback"
        );
    }

    #[test]
    fn seldm_waypredict_uses_way_table_for_conflicting_loads() {
        let mut c = controller(DCachePolicy::SelDmWayPredict);
        let stride = 128 * 32 * 4;
        let a = 0x10_0000;
        let b = a + stride;
        for _ in 0..16 {
            c.load(0x400, a, a);
            c.load(0x404, b, b);
        }
        c.reset_stats();
        for _ in 0..20 {
            c.load(0x400, a, a);
            c.load(0x404, b, b);
        }
        let s = c.stats();
        assert_eq!(s.load_misses, 0);
        assert!(
            s.way_predicted_accesses > 0,
            "conflicting loads should be way-predicted, got {s:?}"
        );
    }

    #[test]
    fn seldm_sequential_pays_latency_only_for_conflicting_loads() {
        let mut c = controller(DCachePolicy::SelDmSequential);
        let addr = 0x8000;
        c.load(0x400, addr, addr);
        let (dm_hit, s) = load_alone(&mut c, 0x400, addr, addr);
        assert_eq!(dm_hit.latency, 1, "non-conflicting loads stay one cycle");
        assert_eq!(s.direct_mapped_accesses, 1);
    }

    #[test]
    fn perfect_way_prediction_is_always_single_way_single_cycle() {
        let mut c = controller(DCachePolicy::PerfectWayPredict);
        for i in 0..20u64 {
            let addr = 0x8000 + i * 64;
            c.load(0x400 + i * 4, addr, addr);
            let (out, s) = load_alone(&mut c, 0x400 + i * 4, addr, addr);
            assert!(out.is_hit());
            assert_eq!(s.cache_energy, ways_read(&c, 1));
            assert_eq!(out.latency, 1);
            assert_eq!(s.mispredicted_accesses, 0);
        }
    }

    #[test]
    fn stores_always_write_one_way_and_never_predict() {
        for policy in DCachePolicy::all() {
            let mut c = controller(policy);
            let model = *c.energy_model();
            let out = c.store(0x500, 0x9000);
            assert_eq!(out.latency, 1);
            assert!(out.is_miss());
            // One way written, then the refill.
            let miss_energy = model.write_energy() + model.data_way_write_energy();
            assert_eq!(c.stats().cache_energy, miss_energy);
            let out = c.store(0x500, 0x9000);
            assert!(out.is_hit());
            assert_eq!(c.stats().stores, 2);
            assert_eq!(c.stats().store_misses, 1);
            // Store energy does not depend on the read policy, and no store
            // is counted in a load class or charged to a predictor.
            let s = c.stats();
            assert_eq!(s.cache_energy, miss_energy + model.write_energy());
            assert_eq!(s.prediction_energy, 0.0);
            assert_eq!(s.access_breakdown(), [0.0; 5]);
        }
    }

    #[test]
    fn energy_ordering_matches_table3() {
        // single-way < misprediction < parallel for the paper's 4-way cache.
        let mut c = controller(DCachePolicy::SelDmWayPredict);
        let single = c.energy_model().single_way_read_energy();
        let mispredicted = c.energy_model().mispredicted_read_energy();
        let parallel = c.energy_model().parallel_read_energy();
        assert!(single < mispredicted && mispredicted < parallel);
        // And the controller actually charges single-way energy for DM hits.
        let addr = 0x8000;
        c.load(0x400, addr, addr);
        let (_, hit) = load_alone(&mut c, 0x400, addr, addr);
        assert!(hit.total_energy() < 0.35 * parallel);
    }

    #[test]
    fn breakdown_counts_cover_all_loads() {
        let mut c = controller(DCachePolicy::SelDmWayPredict);
        for i in 0..200u64 {
            let addr = 0x8000 + (i % 37) * 32;
            c.load(0x400 + (i % 13) * 4, addr, addr);
        }
        let s = c.stats();
        let classified = s.direct_mapped_accesses
            + s.parallel_accesses
            + s.way_predicted_accesses
            + s.sequential_accesses
            + s.mispredicted_accesses;
        assert_eq!(classified, s.loads);
    }

    #[test]
    fn prediction_energy_is_a_small_fraction() {
        // "their energy overhead is small; however, we account for the
        // overhead in our results" — below ~2 % of cache energy here.
        let mut c = controller(DCachePolicy::SelDmWayPredict);
        for i in 0..500u64 {
            let addr = 0x8000 + (i % 61) * 32;
            c.load(0x400 + (i % 17) * 4, addr, addr);
        }
        let s = c.stats();
        assert!(s.prediction_energy > 0.0);
        assert!(s.prediction_energy < 0.05 * s.cache_energy);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = L1Config::paper_dcache().with_associativity(3);
        assert!(DCacheController::new(bad, DCachePolicy::Parallel).is_err());
    }
}
