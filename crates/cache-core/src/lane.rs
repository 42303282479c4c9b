//! Lane batching for the d-cache: one [`DCacheController`] per distinct
//! d-cache state.
//!
//! [`LaneDCache`] runs up to [`MAX_LANES`] d-cache configurations under one
//! policy through **one** access sequence. A configuration's base latency
//! prices a probe (`base` or `base + extra` cycles, see
//! [`L1Config::extra_probe_latency`]) but never changes cache state, so
//! lanes whose configurations differ only in [`L1Config::base_latency`]
//! share one controller. Each lane's outcome (its hit and latency) is its
//! controller's outcome with the latency moved by the lane's base-latency
//! difference, and each lane's statistics (its classes, energies and
//! counts) are its controller's: every lane is bit-identical to a private
//! [`DCacheController`] fed the same access sequence.

use crate::config::{ConfigError, L1Config};
use crate::dcache::{Addr, DAccessOutcome, DCacheController};
use crate::policy::{DCachePolicy, DPolicyKernel};
use crate::stats::DCacheStats;

/// Maximum number of configurations one lane batch carries. Eight bounds
/// the scheduler state a batch touches per op.
pub const MAX_LANES: usize = 8;

/// Where one lane's outcome comes from.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Index of the lane's controller.
    controller: usize,
    /// The first lane on the same controller (the lane itself if it is
    /// first). The controller runs at this lane's base latency, so its
    /// outcome is the leader's outcome unchanged.
    leader: usize,
    /// This lane's base latency.
    base_latency: u64,
}

/// A batch of d-cache configurations simulated over one shared access
/// stream.
///
/// # Example
///
/// ```
/// use wp_cache::{kernels, DCachePolicy, L1Config, LaneDCache};
///
/// # fn main() -> Result<(), wp_cache::ConfigError> {
/// // Two configs differing only in probe latency share one controller.
/// let configs = [
///     L1Config::paper_dcache(),
///     L1Config::paper_dcache().with_base_latency(2),
/// ];
/// let mut lanes = LaneDCache::new(&configs, DCachePolicy::Parallel)?;
/// let mut out = [Default::default(); 2];
/// lanes.load_kernel::<kernels::Parallel>(0x400, 0x1000, 0x1000, &mut out);
/// assert!(out[0].is_miss() && out[1].is_miss());
/// lanes.load_kernel::<kernels::Parallel>(0x400, 0x1000, 0x1000, &mut out);
/// assert!(out[0].is_hit() && out[1].is_hit());
/// assert_eq!(out[0].latency, 1);
/// assert_eq!(out[1].latency, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneDCache {
    controllers: Vec<DCacheController>,
    lanes: Vec<Lane>,
}

/// The part of a configuration that decides cache state: everything but the
/// base latency, which only prices a probe.
fn state_key(config: &L1Config) -> L1Config {
    L1Config {
        base_latency: 0,
        ..*config
    }
}

impl LaneDCache {
    /// Builds a lane batch for `configs` under one shared `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any configuration is inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, wider than [`MAX_LANES`], or the
    /// configurations disagree on geometry (size, block size, or
    /// associativity) — the batcher in `wp-experiments` groups by geometry
    /// before building batches, so a mismatch here is a caller bug.
    pub fn new(configs: &[L1Config], policy: DCachePolicy) -> Result<Self, ConfigError> {
        assert!(
            !configs.is_empty() && configs.len() <= MAX_LANES,
            "lane batch width {} out of range 1..={MAX_LANES}",
            configs.len()
        );
        let geometry = configs[0].geometry()?;
        let mut controllers = Vec::new();
        let mut lanes: Vec<Lane> = Vec::with_capacity(configs.len());
        for (index, config) in configs.iter().enumerate() {
            assert!(
                config.geometry()? == geometry,
                "lane batch requires identical d-cache geometry"
            );
            let leader = configs
                .iter()
                .position(|other| state_key(other) == state_key(config))
                .unwrap_or(index);
            let controller = if leader == index {
                controllers.push(DCacheController::new(*config, policy)?);
                controllers.len() - 1
            } else {
                lanes[leader].controller
            };
            lanes.push(Lane {
                controller,
                leader,
                base_latency: config.base_latency,
            });
        }
        Ok(Self { controllers, lanes })
    }

    /// Accumulated statistics of one lane.
    pub fn stats(&self, lane: usize) -> &DCacheStats {
        self.controllers[self.lanes[lane].controller].stats()
    }

    /// Services the same load in every lane, writing one
    /// [`DAccessOutcome`] per lane into `out`: one
    /// [`DCacheController::load_kernel`] call per distinct d-cache state.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `K::POLICY` matches the batch's policy and that
    /// `out` covers every lane.
    #[inline]
    pub fn load_kernel<K: DPolicyKernel>(
        &mut self,
        pc: Addr,
        addr: Addr,
        approx_addr: Addr,
        out: &mut [DAccessOutcome],
    ) {
        self.fan_out(out, |dcache| dcache.load_kernel::<K>(pc, addr, approx_addr));
    }

    /// Services the same store in every lane; see
    /// [`DCacheController::store`].
    #[inline]
    pub fn store(&mut self, pc: Addr, addr: Addr, out: &mut [DAccessOutcome]) {
        self.fan_out(out, |dcache| dcache.store(pc, addr));
    }

    /// Runs `access` once on every controller, in lane order, and fills
    /// `out`: a leading lane takes its controller's outcome, every other
    /// lane its leader's outcome with the latency shifted.
    #[inline(always)]
    fn fan_out(
        &mut self,
        out: &mut [DAccessOutcome],
        mut access: impl FnMut(&mut DCacheController) -> DAccessOutcome,
    ) {
        debug_assert_eq!(out.len(), self.lanes.len());
        for (index, lane) in self.lanes.iter().enumerate() {
            out[index] = if lane.leader == index {
                access(&mut self.controllers[lane.controller])
            } else {
                let shared = out[lane.leader];
                // Never underflows: every probe costs at least the leader's
                // base latency.
                let extra = shared.latency - self.lanes[lane.leader].base_latency;
                DAccessOutcome {
                    latency: lane.base_latency + extra,
                    ..shared
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic load/store script with enough set pressure to force
    /// evictions, mispredictions, and selective-DM conflicts.
    fn script() -> Vec<(bool, Addr, Addr)> {
        let mut state: u64 = 0x2545_f491_4f6c_dd1a;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..2000)
            .map(|_| {
                let is_store = next() % 4 == 0;
                let pc = 0x400 + (next() % 23) * 4;
                // Tight set working set so ways thrash.
                let addr = 0x1_0000 + (next() % 97) * 32 + (next() % 11) * (128 * 32);
                (is_store, pc, addr)
            })
            .collect()
    }

    /// Drives `lanes` through the script, returning every lane's outcomes.
    fn run_script(lanes: &mut LaneDCache, policy: DCachePolicy) -> Vec<Vec<DAccessOutcome>> {
        script()
            .into_iter()
            .map(|(is_store, pc, addr)| {
                let mut out = vec![DAccessOutcome::default(); lanes.lanes.len()];
                if is_store {
                    lanes.store(pc, addr, &mut out);
                } else {
                    crate::with_dpolicy_kernel!(policy, K => {
                        lanes.load_kernel::<K>(pc, addr, addr, &mut out)
                    });
                }
                out
            })
            .collect()
    }

    #[test]
    fn every_lane_matches_a_private_controller_for_every_policy() {
        let configs = [
            L1Config::paper_dcache().with_base_latency(2),
            L1Config::paper_dcache(),
            L1Config::paper_dcache().with_prediction_table_entries(256),
            L1Config::paper_dcache().with_base_latency(3),
            // A slower second probe is not a constant shift: its own state.
            L1Config {
                extra_probe_latency: 2,
                ..L1Config::paper_dcache()
            },
        ];
        for policy in DCachePolicy::all() {
            let mut lanes = LaneDCache::new(&configs, policy).expect("valid configs");
            let on: Vec<usize> = lanes.lanes.iter().map(|lane| lane.controller).collect();
            assert_eq!(on, [0, 0, 1, 0, 2]);
            let outcomes = run_script(&mut lanes, policy);
            for (l, config) in configs.iter().enumerate() {
                let mut scalar = DCacheController::new(*config, policy).expect("valid config");
                for (i, (is_store, pc, addr)) in script().into_iter().enumerate() {
                    let expect = if is_store {
                        scalar.store(pc, addr)
                    } else {
                        scalar.load(pc, addr, addr)
                    };
                    assert_eq!(outcomes[i][l], expect, "{policy:?} lane {l} access {i}");
                }
                assert_eq!(lanes.stats(l), scalar.stats(), "{policy:?} lane {l} stats");
            }
        }
    }

    #[test]
    fn base_latencies_share_one_controller() {
        let configs = [
            L1Config::paper_dcache(),
            L1Config::paper_dcache().with_base_latency(2),
        ];
        for policy in DCachePolicy::all() {
            let mut lanes = LaneDCache::new(&configs, policy).expect("valid configs");
            assert_eq!(lanes.controllers.len(), 1, "{policy:?}");
            for (i, out) in run_script(&mut lanes, policy).iter().enumerate() {
                let one_cycle_later = DAccessOutcome {
                    latency: out[0].latency + 1,
                    ..out[0]
                };
                assert_eq!(out[1], one_cycle_later, "{policy:?} access {i}");
            }
            assert_eq!(lanes.stats(0), lanes.stats(1), "{policy:?}");
        }
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let configs = [
            L1Config::paper_dcache(),
            L1Config::paper_dcache().with_associativity(2),
        ];
        let result = std::panic::catch_unwind(|| {
            let _ = LaneDCache::new(&configs, DCachePolicy::Parallel);
        });
        assert!(result.is_err(), "geometry mismatch must panic");
    }

    #[test]
    fn invalid_config_is_an_error() {
        let configs = [L1Config::paper_dcache().with_base_latency(0)];
        assert!(LaneDCache::new(&configs, DCachePolicy::Parallel).is_err());
        // A lane that would share a controller is validated too.
        let configs = [
            L1Config::paper_dcache(),
            L1Config::paper_dcache().with_base_latency(0),
        ];
        assert!(LaneDCache::new(&configs, DCachePolicy::Parallel).is_err());
    }
}
