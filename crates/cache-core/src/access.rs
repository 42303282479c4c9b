//! The generic access core shared by the d-cache and i-cache controllers.
//!
//! Every L1 access the paper evaluates — parallel, sequential, way-predicted,
//! selective-DM, and the perfect-prediction oracle — reduces to the same
//! skeleton: a *way selection* made before the data array is touched, one
//! pass through the tag store, and a *probe resolution* that prices the
//! access in ways-probed, latency, and energy. [`AccessCore`] owns that
//! skeleton once; the controllers specialise it with a [`WaySelect`] policy
//! (the prediction stack) and their own statistics.
//!
//! New access policies — way memoization, cache-level prediction, or
//! anything else from the related work — plug in by implementing
//! [`WaySelect`]; the probe/latency/energy accounting comes for free.

use wp_energy::{CacheEnergyModel, Energy};
use wp_mem::{AccessKind, AccessResult, Placement, SetAssocCache, WayIndex};

use crate::config::{ConfigError, L1Config};

/// Address type re-used from the memory substrate.
pub type Addr = wp_mem::Addr;

/// How the controller decided to probe the data array, before the outcome
/// is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaySelection {
    /// Probe every way in parallel (conventional access, or no usable
    /// prediction).
    Parallel,
    /// Probe only the given predicted way.
    Predicted(WayIndex),
    /// Probe only the direct-mapping way (selective-DM, predicted
    /// non-conflicting).
    DirectMapped(WayIndex),
    /// Serialize tag and data arrays: probe only the matching way.
    Sequential,
    /// Oracle single-way probe with no latency penalty (the perfect
    /// way-prediction bound).
    Oracle,
}

/// Which structure produced a way selection — controllers map this, together
/// with the [`ProbeOutcome`], onto their figure-breakdown classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaySource {
    /// No prediction structure was involved.
    None,
    /// A PC- or XOR-indexed way-prediction table.
    WayTable,
    /// The selective-DM table predicted the access non-conflicting.
    SelectiveDm,
    /// The branch target buffer's way field.
    Btb,
    /// The sequential-address way-predictor.
    Sawp,
    /// The return address stack's way field.
    Ras,
    /// The perfect-prediction oracle.
    Oracle,
}

impl WaySource {
    /// True for the fetch-engine structures (BTB and RAS supply ways for
    /// control transfers; Figure 10 groups them together).
    pub fn is_branch_structure(&self) -> bool {
        matches!(self, WaySource::Btb | WaySource::Ras)
    }
}

/// A way selection together with its provenance and the prediction-structure
/// energy spent producing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The probe decision.
    pub choice: WaySelection,
    /// Which structure made it.
    pub source: WaySource,
    /// Energy charged to the prediction structures for this access.
    pub energy: Energy,
}

impl Selection {
    /// A conventional parallel probe with no prediction involvement.
    pub fn parallel() -> Self {
        Self {
            choice: WaySelection::Parallel,
            source: WaySource::None,
            energy: 0.0,
        }
    }
}

/// How a probe actually played out once the tag store answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// All ways were probed in parallel.
    Parallel,
    /// A single-way probe that was right (or a clean miss through it).
    SingleWay,
    /// A wrong single-way probe: a corrective second probe was needed.
    Mispredicted,
    /// A serialized tag-then-data access.
    Sequential,
}

/// The resolved cost of one read probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// What happened.
    pub outcome: ProbeOutcome,
    /// Data ways touched (0 for a sequential or oracle access that missed in
    /// the tag array before touching the data array).
    pub ways_probed: usize,
    /// L1 latency in cycles (the caller adds L2/memory latency on misses).
    pub latency: u64,
    /// Energy dissipated in the cache arrays, including the refill write on
    /// a miss.
    pub energy: Energy,
}

/// What the tag store observed, fed back to the policy for training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The way the block occupies after the access (hit way, or the way
    /// filled on a miss).
    pub way: WayIndex,
    /// Whether the block was resident.
    pub hit: bool,
    /// Whether the block sits in its direct-mapping way.
    pub in_direct_mapped_way: bool,
}

/// A way-selection policy: the prediction stack consulted before the probe
/// and trained after it.
///
/// Implementations exist for the fetch-engine i-cache
/// ([`crate::IWaySelect`]) and for the d-cache, where a private view of
/// [`crate::DWaySelect`] fixes the d-cache policy at compile time
/// ([`crate::DPolicyKernel`]); further policies from the literature can be
/// added without touching the accounting in [`AccessCore`].
pub trait WaySelect {
    /// Per-access context (PC and approximate address for loads, the fetch
    /// kind for instruction fetches).
    type Ctx;

    /// Chooses how to probe for this access, charging any
    /// prediction-structure energy to [`Selection::energy`].
    fn select(&mut self, ctx: &Self::Ctx) -> Selection;

    /// Trains the prediction structures with the observed outcome. `cache`
    /// is the tag store, for policies that record the way of a *different*
    /// block (the RAS records the return block's way at call time). Returns
    /// any additional prediction energy.
    fn train(&mut self, ctx: &Self::Ctx, observed: Observation, cache: &SetAssocCache) -> Energy;
}

/// One full read access through the core: tag-store result, priced probe,
/// selection provenance, and prediction energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreAccess {
    /// Raw tag-store outcome (hit, way, eviction, placement info).
    pub result: AccessResult,
    /// Priced probe.
    pub probe: Probe,
    /// The way selection that drove the probe.
    pub selection: Selection,
    /// Total prediction-structure energy for this access (selection plus
    /// training).
    pub prediction_energy: Energy,
}

impl CoreAccess {
    /// Total energy of the access: cache arrays plus prediction structures.
    pub fn energy(&self) -> Energy {
        self.probe.energy + self.prediction_energy
    }
}

/// The shared substrate of an energy-aware L1 controller: configuration,
/// tag store, energy model, and the probe/latency/energy accounting rules.
///
/// # Example
///
/// Stores involve no way selection in any policy (end of Section 2.1), so
/// they exercise the core without a [`WaySelect`] implementation:
///
/// ```
/// use wp_cache::{AccessCore, L1Config};
/// use wp_mem::Placement;
///
/// # fn main() -> Result<(), wp_cache::ConfigError> {
/// let mut core = AccessCore::new(L1Config::paper_dcache())?;
/// let miss = core.write(0x1000, Placement::SetAssociative);
/// let hit = core.write(0x1000, Placement::SetAssociative);
/// assert!(miss.result.is_miss() && hit.result.is_hit());
/// assert_eq!(hit.probe.ways_probed, 1);
/// // The miss also paid the refill write into the selected way.
/// assert!(miss.probe.energy > hit.probe.energy);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AccessCore {
    config: L1Config,
    cache: SetAssocCache,
    energy: CacheEnergyModel,
    costs: ProbeCosts,
}

/// Per-probe-shape costs, precomputed once from the energy model and the
/// configuration so resolving a probe on the hot path is a pair of table
/// lookups — no floating-point model evaluation (the analytic model takes
/// square roots and logarithms) and no allocation per access.
#[derive(Debug, Clone)]
struct ProbeCosts {
    /// Energy of a conventional parallel read of all ways.
    parallel_read: Energy,
    /// Energy of a read probing exactly `i` data ways, indexed by `i`.
    /// Non-parallel probes touch at most two ways (the probe plus the
    /// corrective probe of a misprediction), so a fixed three-entry array
    /// covers every case without a heap indirection.
    n_way_read: [Energy; 3],
    /// Refill write into the selected way, charged to every miss.
    refill_write: Energy,
    /// Energy of a store: tag probe plus a single data-way write.
    write: Energy,
    base_latency: u64,
    sequential_latency: u64,
    mispredict_latency: u64,
    associativity: usize,
}

impl ProbeCosts {
    fn new(config: &L1Config, energy: &CacheEnergyModel) -> Self {
        Self {
            parallel_read: energy.parallel_read_energy(),
            n_way_read: [
                energy.n_way_read_energy(0),
                energy.n_way_read_energy(1),
                energy.n_way_read_energy(2),
            ],
            refill_write: energy.data_way_write_energy(),
            write: energy.write_energy(),
            base_latency: config.base_latency,
            sequential_latency: config.sequential_latency(),
            mispredict_latency: config.mispredict_latency(),
            associativity: config.associativity,
        }
    }

    /// Prices a read probe: the shared ways-probed / latency / energy rules
    /// of Sections 2.1–2.3 and Table 3, previously duplicated between the
    /// two controllers. All costs come from the precomputed tables, so this
    /// is allocation-free and model-evaluation-free.
    #[inline(always)]
    fn resolve(&self, choice: WaySelection, result: &AccessResult) -> Probe {
        let (outcome, ways_probed, latency) = match choice {
            WaySelection::Parallel => (
                ProbeOutcome::Parallel,
                self.associativity,
                self.base_latency,
            ),
            WaySelection::Sequential => (
                ProbeOutcome::Sequential,
                usize::from(result.hit),
                self.sequential_latency,
            ),
            WaySelection::Oracle => (
                ProbeOutcome::SingleWay,
                usize::from(result.hit),
                self.base_latency,
            ),
            WaySelection::Predicted(way) | WaySelection::DirectMapped(way) => {
                if result.hit && result.way != way {
                    // The block lives in a different way: the single-way
                    // probe was wrong and a corrective second probe is
                    // needed.
                    (ProbeOutcome::Mispredicted, 2, self.mispredict_latency)
                } else {
                    // Correct single-way probe, or a miss in which only the
                    // selected way was touched before the tag array reported
                    // the miss.
                    (ProbeOutcome::SingleWay, 1, self.base_latency)
                }
            }
        };
        let mut energy = match outcome {
            ProbeOutcome::Parallel => self.parallel_read,
            _ => self.n_way_read[ways_probed],
        };
        if !result.hit {
            // Refill write into the selected way; identical in every policy.
            energy += self.refill_write;
        }
        Probe {
            outcome,
            ways_probed,
            latency,
            energy,
        }
    }

    /// Prices a store: a tag probe plus a single data-way write (plus the
    /// refill write on a miss), in every policy.
    #[inline(always)]
    fn price_write(&self, result: &AccessResult) -> Probe {
        let mut energy = self.write;
        if !result.hit {
            energy += self.refill_write;
        }
        Probe {
            outcome: ProbeOutcome::SingleWay,
            ways_probed: 1,
            latency: self.base_latency,
            energy,
        }
    }
}

impl AccessCore {
    /// Builds the core for `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent.
    pub fn new(config: L1Config) -> Result<Self, ConfigError> {
        let geometry = config.geometry()?;
        let energy = CacheEnergyModel::new(geometry);
        let costs = ProbeCosts::new(&config, &energy);
        Ok(Self {
            config,
            cache: SetAssocCache::new(geometry),
            energy,
            costs,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &L1Config {
        &self.config
    }

    /// The tag store.
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }

    /// The energy model used to charge accesses.
    pub fn energy_model(&self) -> &CacheEnergyModel {
        &self.energy
    }

    /// One read access under policy `select`: consult the policy, run the
    /// tag store, price the probe, and train the policy.
    #[inline(always)]
    pub fn read<P: WaySelect>(
        &mut self,
        select: &mut P,
        ctx: &P::Ctx,
        addr: Addr,
        placement: Placement,
    ) -> CoreAccess {
        let selection = select.select(ctx);
        let result = self.cache.access(addr, AccessKind::Read, placement);
        let probe = self.costs.resolve(selection.choice, &result);
        let observed = Observation {
            way: result.way,
            hit: result.hit,
            in_direct_mapped_way: result.in_direct_mapped_way,
        };
        let train_energy = select.train(ctx, observed, &self.cache);
        CoreAccess {
            result,
            probe,
            selection,
            prediction_energy: selection.energy + train_energy,
        }
    }

    /// One write access: stores check the tag array first and then write
    /// only the matching way, in every policy (end of Section 2.1), so they
    /// involve no way selection.
    #[inline]
    pub fn write(&mut self, addr: Addr, placement: Placement) -> CoreAccess {
        let result = self.cache.access(addr, AccessKind::Write, placement);
        CoreAccess {
            result,
            probe: self.costs.price_write(&result),
            selection: Selection::parallel(),
            prediction_energy: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted policy for exercising the core in isolation.
    struct Scripted(WaySelection);

    impl WaySelect for Scripted {
        type Ctx = ();
        fn select(&mut self, _ctx: &()) -> Selection {
            Selection {
                choice: self.0,
                source: WaySource::WayTable,
                energy: 0.25,
            }
        }
        fn train(&mut self, _ctx: &(), _observed: Observation, _cache: &SetAssocCache) -> Energy {
            0.5
        }
    }

    fn core() -> AccessCore {
        AccessCore::new(L1Config::paper_dcache()).expect("valid config")
    }

    #[test]
    fn parallel_probe_touches_all_ways() {
        let mut core = core();
        let mut p = Scripted(WaySelection::Parallel);
        let access = core.read(&mut p, &(), 0x8000, Placement::SetAssociative);
        assert!(access.result.is_miss());
        assert_eq!(access.probe.outcome, ProbeOutcome::Parallel);
        assert_eq!(access.probe.ways_probed, 4);
        assert_eq!(access.probe.latency, 1);
        assert_eq!(access.prediction_energy, 0.75);
        assert!(access.energy() > access.probe.energy);
    }

    #[test]
    fn predicted_probe_resolves_against_residency() {
        let mut core = core();
        let mut warm = Scripted(WaySelection::Parallel);
        let filled = core.read(&mut warm, &(), 0x8000, Placement::SetAssociative);
        let way = filled.result.way;

        let mut right = Scripted(WaySelection::Predicted(way));
        let hit = core.read(&mut right, &(), 0x8000, Placement::SetAssociative);
        assert_eq!(hit.probe.outcome, ProbeOutcome::SingleWay);
        assert_eq!(hit.probe.ways_probed, 1);
        assert_eq!(hit.probe.latency, 1);

        let mut wrong = Scripted(WaySelection::Predicted(way + 1));
        let miss = core.read(&mut wrong, &(), 0x8000, Placement::SetAssociative);
        assert_eq!(miss.probe.outcome, ProbeOutcome::Mispredicted);
        assert_eq!(miss.probe.ways_probed, 2);
        assert_eq!(miss.probe.latency, 2);
    }

    #[test]
    fn sequential_and_oracle_probe_nothing_on_a_miss() {
        let mut core = core();
        let mut seq = Scripted(WaySelection::Sequential);
        let access = core.read(&mut seq, &(), 0x9000, Placement::SetAssociative);
        assert_eq!(access.probe.ways_probed, 0);
        assert_eq!(access.probe.latency, 2);
        let mut oracle = Scripted(WaySelection::Oracle);
        let access = core.read(&mut oracle, &(), 0xa000, Placement::SetAssociative);
        assert_eq!(access.probe.ways_probed, 0);
        assert_eq!(access.probe.latency, 1);
    }

    #[test]
    fn misses_pay_the_refill_write() {
        let mut core = core();
        let mut p = Scripted(WaySelection::Parallel);
        let miss = core.read(&mut p, &(), 0xb000, Placement::SetAssociative);
        let hit = core.read(&mut p, &(), 0xb000, Placement::SetAssociative);
        let refill = core.energy_model().data_way_write_energy();
        assert!((miss.probe.energy - hit.probe.energy - refill).abs() < 1e-9);
    }

    #[test]
    fn writes_are_single_way_and_unpredicted() {
        let mut core = core();
        let access = core.write(0xc000, Placement::SetAssociative);
        assert!(access.result.is_miss());
        assert_eq!(access.probe.ways_probed, 1);
        assert_eq!(access.prediction_energy, 0.0);
        let again = core.write(0xc000, Placement::SetAssociative);
        assert!(again.result.is_hit());
        assert!(again.probe.energy < access.probe.energy);
    }

    #[test]
    fn branch_structure_sources_are_grouped() {
        assert!(WaySource::Btb.is_branch_structure());
        assert!(WaySource::Ras.is_branch_structure());
        assert!(!WaySource::Sawp.is_branch_structure());
        assert!(!WaySource::WayTable.is_branch_structure());
    }
}
