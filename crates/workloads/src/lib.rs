//! Synthetic versions of the paper's 19 workloads (Table I).
//!
//! The original evaluation runs PolyBench / SHOC / Rodinia / HeteroMark /
//! AMD-SDK / Pannotia / MAFIA binaries inside MGPUSim. Translation
//! behaviour, however, depends only on each kernel's **virtual address
//! stream** — footprint, stride structure, warp coalescing, inter-CTA
//! sharing — so each application is reproduced as a synthetic kernel
//! emitting the address stream of its algorithm (see DESIGN.md's
//! substitution table):
//!
//! * dense row streams (`gemv`, `gemver`-style vector kernels),
//! * column-major passes over row-major matrices (`atax`, `bicg`, `gesm`,
//!   `matr` writes) — one page per lane, the high-MPKI class,
//! * stencil sweeps (`adi`, `jac2d`, `fdtd2d`, `st2d`),
//! * power-of-two butterfly strides (`fft`, `fwt`),
//! * blocked/wavefront dense kernels (`lu`, `nw`, `corr`, `cov`),
//! * CSR gathers with power-law column skew (`pr`, `sssp`, `spmv`),
//! * uniform random updates (`gups`).
//!
//! [`AppId::paper_mpki`] records Table I's measured MPKI; the `table1`
//! figure of `barre repro` prints paper-vs-measured per app.

pub mod apps;
pub mod multi;
pub mod patterns;

pub use apps::{AppId, Category, DatasetDecl, WorkloadSpec};
pub use multi::AppPair;
