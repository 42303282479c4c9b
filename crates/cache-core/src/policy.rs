//! The design options the paper evaluates, as data.

use serde::{Deserialize, Serialize};

/// How d-cache loads are accessed (Sections 2.1–2.2, Figures 4–6, 9).
///
/// Stores always check the tag array first and write only the matching way,
/// in every policy (end of Section 2.1), so the policy applies to loads
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DCachePolicy {
    /// Conventional parallel access: all ways probed, 1-cycle — the energy
    /// baseline every figure normalises to.
    Parallel,
    /// Sequential access: wait for the tag array, then probe only the
    /// matching way (Alpha 21164 L2 style). Low energy, but every access
    /// pays the serialization latency (Figure 4).
    Sequential,
    /// PC-indexed way-prediction for every load (Figure 5, "E").
    WayPredictPc,
    /// Way-prediction indexed by the XOR approximation of the load address
    /// (Figure 5, "X"). More accurate than the PC but the table lookup sits
    /// on the address-generation critical path; the paper flags it as hard
    /// to implement and we model only its energy/accuracy behaviour.
    WayPredictXor,
    /// Selective direct-mapping with parallel access for conflicting loads
    /// (Figure 6, "P").
    SelDmParallel,
    /// Selective direct-mapping with PC-based way-prediction for conflicting
    /// loads (Figure 6, "W") — the configuration the paper recommends for
    /// performance.
    SelDmWayPredict,
    /// Selective direct-mapping with sequential access for conflicting loads
    /// (Figure 6, "S") — the configuration the paper recommends for energy.
    SelDmSequential,
    /// An oracle that always probes exactly the matching way with no
    /// latency penalty: the "perfect way-prediction" bound of Figure 11.
    PerfectWayPredict,
}

impl DCachePolicy {
    /// Every concrete (implementable) policy, in the order the paper's
    /// Table 5 summarises them.
    pub fn all() -> [DCachePolicy; 7] {
        [
            DCachePolicy::Parallel,
            DCachePolicy::Sequential,
            DCachePolicy::WayPredictPc,
            DCachePolicy::WayPredictXor,
            DCachePolicy::SelDmParallel,
            DCachePolicy::SelDmWayPredict,
            DCachePolicy::SelDmSequential,
        ]
    }

    /// True if the policy uses the selective-DM prediction table and victim
    /// list.
    pub fn uses_selective_dm(&self) -> bool {
        matches!(
            self,
            DCachePolicy::SelDmParallel
                | DCachePolicy::SelDmWayPredict
                | DCachePolicy::SelDmSequential
        )
    }

    /// A short label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            DCachePolicy::Parallel => "parallel",
            DCachePolicy::Sequential => "sequential",
            DCachePolicy::WayPredictPc => "waypred-pc",
            DCachePolicy::WayPredictXor => "waypred-xor",
            DCachePolicy::SelDmParallel => "seldm+parallel",
            DCachePolicy::SelDmWayPredict => "seldm+waypred",
            DCachePolicy::SelDmSequential => "seldm+sequential",
            DCachePolicy::PerfectWayPredict => "perfect-waypred",
        }
    }

    /// The inverse of [`DCachePolicy::label`]: looks a policy up by its
    /// figure-legend label (the vocabulary the service protocol and the
    /// client binaries speak). Every variant parses, the oracle bound
    /// (`perfect-waypred`) included.
    pub fn parse(label: &str) -> Option<DCachePolicy> {
        let mut all = DCachePolicy::all().to_vec();
        all.push(DCachePolicy::PerfectWayPredict);
        all.into_iter().find(|policy| policy.label() == label)
    }
}

impl std::fmt::Display for DCachePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A [`DCachePolicy`] lifted to the type level, so the per-access policy
/// dispatch monomorphizes away.
///
/// The runtime policy enum is matched once per *access* on the generic
/// path; a kernel carries the policy as an associated constant, so
/// [`crate::DCacheController::load_kernel`] (and the processor's
/// per-policy `run_blocks` instantiations built on it) compile to
/// straight-line code for exactly one policy — the `match` folds at
/// compile time. [`kernels`] provides one zero-sized kernel per policy.
pub trait DPolicyKernel {
    /// The policy this kernel is specialised for.
    const POLICY: DCachePolicy;
}

/// One zero-sized [`DPolicyKernel`] per [`DCachePolicy`] variant.
pub mod kernels {
    use super::{DCachePolicy, DPolicyKernel};

    macro_rules! kernel {
        ($(#[$doc:meta] $name:ident => $policy:ident),* $(,)?) => {
            $(
                #[$doc]
                #[derive(Debug, Clone, Copy, Default)]
                pub struct $name;
                impl DPolicyKernel for $name {
                    const POLICY: DCachePolicy = DCachePolicy::$policy;
                }
            )*
        };
    }

    kernel! {
        /// Kernel for [`DCachePolicy::Parallel`].
        Parallel => Parallel,
        /// Kernel for [`DCachePolicy::Sequential`].
        Sequential => Sequential,
        /// Kernel for [`DCachePolicy::WayPredictPc`].
        WayPredictPc => WayPredictPc,
        /// Kernel for [`DCachePolicy::WayPredictXor`].
        WayPredictXor => WayPredictXor,
        /// Kernel for [`DCachePolicy::SelDmParallel`].
        SelDmParallel => SelDmParallel,
        /// Kernel for [`DCachePolicy::SelDmWayPredict`].
        SelDmWayPredict => SelDmWayPredict,
        /// Kernel for [`DCachePolicy::SelDmSequential`].
        SelDmSequential => SelDmSequential,
        /// Kernel for [`DCachePolicy::PerfectWayPredict`].
        PerfectWayPredict => PerfectWayPredict,
    }
}

/// Dispatches `$body` with `$kernel` bound to the [`DPolicyKernel`] type
/// matching the runtime policy `$policy` — the single point where a
/// runtime [`DCachePolicy`] is lifted to the type level.
#[macro_export]
macro_rules! with_dpolicy_kernel {
    ($policy:expr, $kernel:ident => $body:expr) => {
        match $policy {
            $crate::DCachePolicy::Parallel => {
                type $kernel = $crate::kernels::Parallel;
                $body
            }
            $crate::DCachePolicy::Sequential => {
                type $kernel = $crate::kernels::Sequential;
                $body
            }
            $crate::DCachePolicy::WayPredictPc => {
                type $kernel = $crate::kernels::WayPredictPc;
                $body
            }
            $crate::DCachePolicy::WayPredictXor => {
                type $kernel = $crate::kernels::WayPredictXor;
                $body
            }
            $crate::DCachePolicy::SelDmParallel => {
                type $kernel = $crate::kernels::SelDmParallel;
                $body
            }
            $crate::DCachePolicy::SelDmWayPredict => {
                type $kernel = $crate::kernels::SelDmWayPredict;
                $body
            }
            $crate::DCachePolicy::SelDmSequential => {
                type $kernel = $crate::kernels::SelDmSequential;
                $body
            }
            $crate::DCachePolicy::PerfectWayPredict => {
                type $kernel = $crate::kernels::PerfectWayPredict;
                $body
            }
        }
    };
}

/// How i-cache fetches are accessed (Section 2.3, Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ICachePolicy {
    /// Conventional parallel access.
    Parallel,
    /// Way-prediction integrated with the fetch engine: BTB way fields for
    /// taken branches, the SAWP for sequential and not-taken fetches, the
    /// RAS way field for returns; parallel access when no prediction is
    /// available.
    WayPredict,
}

impl ICachePolicy {
    /// Both i-cache policies.
    pub fn all() -> [ICachePolicy; 2] {
        [ICachePolicy::Parallel, ICachePolicy::WayPredict]
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ICachePolicy::Parallel => "parallel",
            ICachePolicy::WayPredict => "waypred",
        }
    }

    /// The inverse of [`ICachePolicy::label`].
    pub fn parse(label: &str) -> Option<ICachePolicy> {
        ICachePolicy::all()
            .into_iter()
            .find(|policy| policy.label() == label)
    }
}

impl std::fmt::Display for ICachePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_structure() {
        assert!(DCachePolicy::SelDmWayPredict.uses_selective_dm());
        assert!(DCachePolicy::SelDmSequential.uses_selective_dm());
        assert!(!DCachePolicy::Parallel.uses_selective_dm());
    }

    #[test]
    fn all_lists_are_unique() {
        let d = DCachePolicy::all();
        for (i, a) in d.iter().enumerate() {
            for b in d.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_ne!(ICachePolicy::all()[0], ICachePolicy::all()[1]);
    }

    #[test]
    fn labels_are_distinct_and_displayed() {
        let mut labels: Vec<_> = DCachePolicy::all().iter().map(|p| p.label()).collect();
        labels.push(DCachePolicy::PerfectWayPredict.label());
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
        assert_eq!(DCachePolicy::SelDmWayPredict.to_string(), "seldm+waypred");
        assert_eq!(ICachePolicy::WayPredict.to_string(), "waypred");
    }

    #[test]
    fn parse_inverts_label_for_every_policy() {
        for policy in DCachePolicy::all() {
            assert_eq!(DCachePolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(
            DCachePolicy::parse("perfect-waypred"),
            Some(DCachePolicy::PerfectWayPredict)
        );
        assert_eq!(DCachePolicy::parse("nonesuch"), None);
        for policy in ICachePolicy::all() {
            assert_eq!(ICachePolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(ICachePolicy::parse("seldm+waypred"), None);
    }
}
