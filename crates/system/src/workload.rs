//! The execution model: how workloads run on the simulated NDP cores.
//!
//! The NDP cores of the paper are simple in-order cores that issue one memory operation
//! at a time (Section 5). The simulator models them as *programs* that are stepped one
//! [`Action`] at a time: the machine asks the core's program for its next action,
//! charges its latency (compute cycles, a cache/memory access, or a synchronization
//! request), and asks again when the action completes. Workload state that is logically
//! shared between cores (a concurrent data structure, a graph, an output array) lives
//! in ordinary Rust values shared between the per-core programs via `Arc<Mutex<…>>`;
//! the simulator steps every program of one run from a single event loop, and mutual
//! exclusion of the *simulated* accesses is enforced by the simulated synchronization
//! itself.

use crate::address::AddressSpace;
use crate::config::NdpConfig;
use syncron_core::request::SyncRequest;
use syncron_sim::stats::LogHistogram;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId};

/// The next thing a core does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Execute `instrs` instructions of local computation (CPI 1, no memory accesses).
    Compute {
        /// Number of instructions.
        instrs: u64,
    },
    /// Load one word (modeled at cache-line granularity) from `addr`.
    Load {
        /// Address to read.
        addr: Addr,
    },
    /// Store one word to `addr`.
    Store {
        /// Address to write.
        addr: Addr,
    },
    /// Atomic read-modify-write on `addr` (test-and-set, CAS, fetch-and-add). Only
    /// meaningful under the MESI coherence mode used by the motivational experiments;
    /// under software-assisted coherence it costs a load plus a store.
    Rmw {
        /// Address to update atomically.
        addr: Addr,
    },
    /// Issue a synchronization request (`req_sync` / `req_async`).
    Sync(SyncRequest),
    /// The program has finished; the core goes idle.
    Done,
}

/// The program executed by one NDP core.
pub trait CoreProgram {
    /// Returns the core's next action. Called again when the previous action completes
    /// (for blocking synchronization, when the response message arrives).
    fn step(&mut self, core: GlobalCoreId, now: Time) -> Action;

    /// Number of application-level operations (data-structure operations, processed
    /// vertices, …) this core has completed, used for throughput reports.
    fn ops_completed(&self) -> u64 {
        0
    }

    /// Per-request latency histogram (nanoseconds) for open-loop programs that
    /// measure admission→completion time per request. Closed-loop programs (the
    /// default) return `None`; the machine merges the histograms of all cores into
    /// [`RunReport::latency`](crate::report::RunReport::latency).
    fn latency_histogram(&self) -> Option<&LogHistogram> {
        None
    }
}

impl std::fmt::Debug for dyn CoreProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoreProgram(ops={})", self.ops_completed())
    }
}

/// A workload: allocates its data in the NDP address space and provides one program per
/// client core.
pub trait Workload {
    /// Human-readable name (used in reports, e.g. `"pr.wk"` or `"stack"`).
    fn name(&self) -> String;

    /// Allocates the workload's data and builds one program per entry of `clients`
    /// (in the same order).
    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>>;
}

impl std::fmt::Debug for dyn Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workload({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl CoreProgram for Nop {
        fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
            Action::Done
        }
    }

    #[test]
    fn default_ops_completed_is_zero() {
        let nop = Nop;
        assert_eq!(nop.ops_completed(), 0);
        let boxed: Box<dyn CoreProgram> = Box::new(Nop);
        assert!(format!("{boxed:?}").contains("CoreProgram"));
    }

    #[test]
    fn action_is_copy_and_comparable() {
        let a = Action::Compute { instrs: 5 };
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, Action::Done);
    }
}
