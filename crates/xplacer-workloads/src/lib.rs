//! # xplacer-workloads — the paper's evaluation applications
//!
//! Ports of the applications XPlacer is evaluated on (paper §IV), running
//! against the [`hetsim`] simulator with the allocation, kernel, and
//! transfer structure that the paper's findings depend on:
//!
//! * [`lulesh`] — the LULESH 2 RAJA/CUDA proxy app with its singleton
//!   domain object, per-step temporary allocations, and the four remedy
//!   variants of Fig. 6;
//! * [`smith_waterman`] — anti-diagonal wavefront alignment, row-major
//!   baseline vs the rotated-matrix optimization of Fig. 9;
//! * [`rodinia`] — Backprop, CFD, Gaussian, LUD, NN, and Pathfinder
//!   (baseline + overlapped-transfer variant, Figs. 10/11), each with the
//!   Table II data-flow quirks intact.
//!
//! Every workload computes a real result that is verified against a
//! plain-Rust reference, and is identical across its variants.

pub mod driver;
pub mod lulesh;
pub mod result;
pub mod rodinia;
pub mod smith_waterman;

pub use driver::{canonical_name, run_workload, WORKLOADS, WORKLOAD_NAMES};
pub use result::RunResult;

use std::cell::RefCell;
use std::rc::Rc;

use xplacer_core::Tracer;

/// Register a workload's `(address, name)` pairs with a tracer — the
/// runtime effect of the paper's `#pragma xpl diagnostic` argument
/// expansion.
pub fn register_names(tracer: &Rc<RefCell<Tracer>>, names: &[(hetsim::Addr, String)]) {
    let mut t = tracer.borrow_mut();
    for (addr, name) in names {
        t.name(*addr, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{platform, Machine};
    use xplacer_core::attach_tracer;

    #[test]
    fn register_names_is_visible_in_summaries() {
        let mut m = Machine::new(platform::intel_pascal());
        let tracer = attach_tracer(&mut m);
        let l = lulesh::Lulesh::setup(
            &mut m,
            lulesh::LuleshConfig::new(2, 1),
            lulesh::LuleshVariant::Baseline,
        );
        register_names(&tracer, &l.names());
        let summaries = xplacer_core::summarize(&tracer.borrow().smt, true);
        assert!(summaries.iter().any(|s| s.name == "dom"));
        assert!(summaries.iter().any(|s| s.name == "(dom)->m_e"));
    }
}
