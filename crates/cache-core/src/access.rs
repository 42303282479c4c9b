//! The generic access core shared by the d-cache and i-cache controllers.
//!
//! Every L1 access the paper evaluates — parallel, sequential, way-predicted,
//! selective-DM, and the perfect-prediction oracle — reduces to the same
//! skeleton: a *way selection* made before the data array is touched, one
//! pass through the tag store, and a *probe resolution* that prices the
//! access in ways-probed, latency, and energy. [`AccessCore`] owns the tag
//! store and the pricing. Each controller picks its way from its own
//! prediction stack, calls [`AccessCore::read`], trains the stack, and
//! counts the access into its statistics, all in one function; a new policy
//! is a [`crate::DCachePolicy`] or [`crate::ICachePolicy`] variant and its
//! arms in that controller.

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
pub(crate) struct Selection {
    /// The probe decision.
    pub(crate) choice: WaySelection,
    /// Which structure made it.
    pub(crate) source: WaySource,
    /// Energy charged to the prediction structures for this access.
    pub(crate) energy: Energy,
}

impl Selection {
    /// A conventional parallel probe with no prediction involvement.
    pub(crate) fn parallel() -> Self {
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

/// The shared substrate of an energy-aware L1 controller: configuration,
/// tag store, energy model, and the probe/latency/energy accounting rules.
///
/// # Example
///
/// ```
/// use wp_cache::{AccessCore, L1Config, ProbeOutcome, WaySelection};
/// use wp_mem::Placement;
///
/// # fn main() -> Result<(), wp_cache::ConfigError> {
/// let mut core = AccessCore::new(L1Config::paper_dcache())?;
/// let (miss, _) = core.read(0x1000, Placement::SetAssociative, WaySelection::Parallel);
/// let predicted = WaySelection::Predicted(miss.way);
/// let (hit, probe) = core.read(0x1000, Placement::SetAssociative, predicted);
/// assert!(miss.is_miss() && hit.is_hit());
/// assert_eq!((probe.outcome, probe.ways_probed), (ProbeOutcome::SingleWay, 1));
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

    /// One read access probed as `choice`: run the tag store (filling a
    /// miss at `placement`) and price the probe.
    #[inline(always)]
    pub fn read(
        &mut self,
        addr: Addr,
        placement: Placement,
        choice: WaySelection,
    ) -> (AccessResult, Probe) {
        let result = self.cache.access(addr, AccessKind::Read, placement);
        (result, self.costs.resolve(choice, &result))
    }

    /// One write access: stores check the tag array first and then write
    /// only the matching way, in every policy (end of Section 2.1), so they
    /// involve no way selection.
    #[inline]
    pub fn write(&mut self, addr: Addr, placement: Placement) -> (AccessResult, Probe) {
        let result = self.cache.access(addr, AccessKind::Write, placement);
        (result, self.costs.price_write(&result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SA: Placement = Placement::SetAssociative;

    fn core() -> AccessCore {
        AccessCore::new(L1Config::paper_dcache()).expect("valid config")
    }

    #[test]
    fn parallel_probe_touches_all_ways() {
        let mut core = core();
        let (result, probe) = core.read(0x8000, SA, WaySelection::Parallel);
        assert!(result.is_miss());
        assert_eq!(probe.outcome, ProbeOutcome::Parallel);
        assert_eq!(probe.ways_probed, 4);
        assert_eq!(probe.latency, 1);
    }

    #[test]
    fn predicted_probe_resolves_against_residency() {
        let mut core = core();
        let (filled, _) = core.read(0x8000, SA, WaySelection::Parallel);
        let way = filled.way;

        let (_, hit) = core.read(0x8000, SA, WaySelection::Predicted(way));
        assert_eq!(hit.outcome, ProbeOutcome::SingleWay);
        assert_eq!(hit.ways_probed, 1);
        assert_eq!(hit.latency, 1);

        let (_, miss) = core.read(0x8000, SA, WaySelection::Predicted(way + 1));
        assert_eq!(miss.outcome, ProbeOutcome::Mispredicted);
        assert_eq!(miss.ways_probed, 2);
        assert_eq!(miss.latency, 2);
    }

    #[test]
    fn sequential_and_oracle_probe_nothing_on_a_miss() {
        let mut core = core();
        let (_, probe) = core.read(0x9000, SA, WaySelection::Sequential);
        assert_eq!(probe.ways_probed, 0);
        assert_eq!(probe.latency, 2);
        let (_, probe) = core.read(0xa000, SA, WaySelection::Oracle);
        assert_eq!(probe.ways_probed, 0);
        assert_eq!(probe.latency, 1);
    }

    #[test]
    fn misses_pay_the_refill_write() {
        let mut core = core();
        let (_, miss) = core.read(0xb000, SA, WaySelection::Parallel);
        let (_, hit) = core.read(0xb000, SA, WaySelection::Parallel);
        let refill = core.energy_model().data_way_write_energy();
        assert!((miss.energy - hit.energy - refill).abs() < 1e-9);
    }

    #[test]
    fn writes_are_single_way_and_unpredicted() {
        let mut core = core();
        let (result, miss) = core.write(0xc000, SA);
        assert!(result.is_miss());
        assert_eq!(miss.ways_probed, 1);
        let (again, hit) = core.write(0xc000, SA);
        assert!(again.is_hit());
        assert!(hit.energy < miss.energy);
    }

    #[test]
    fn branch_structure_sources_are_grouped() {
        assert!(WaySource::Btb.is_branch_structure());
        assert!(WaySource::Ras.is_branch_structure());
        assert!(!WaySource::Sawp.is_branch_structure());
        assert!(!WaySource::WayTable.is_branch_structure());
    }
}
