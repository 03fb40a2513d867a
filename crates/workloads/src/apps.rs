//! The 19 Table I applications.
//!
//! Each application is defined by its data objects, the per-CTA slice of
//! its iteration space, and the warp-level access stream of its algorithm.
//! Footprints are scaled down from the originals so a full experiment
//! sweep runs in seconds; the *relative* TLB pressure (the low/mid/high
//! MPKI classes of Table I) is preserved, and the `table1` figure of
//! `barre repro` reports the measured values next to the paper's.

use barre_gpu::pattern::AccessPattern;
use barre_mapping::DataHint;
use barre_mem::VirtAddr;
use barre_sim::SeedTap;

use crate::patterns::{
    Butterfly, Chain, ColStream, RandGather, RowStream, StencilRows, Wavefront, ZipfGather, ELEM,
};

/// Table I IOMMU-intensity class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// L2 TLB MPKI below 1.
    Low,
    /// MPKI between 1 and 50.
    Mid,
    /// MPKI above 100.
    High,
}

impl Category {
    /// The class an L2 TLB MPKI falls in (Table I's boundaries).
    pub fn of_mpki(mpki: f64) -> Category {
        match mpki {
            m if m < 1.0 => Category::Low,
            m if m < 100.0 => Category::Mid,
            _ => Category::High,
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Low => write!(f, "low"),
            Category::Mid => write!(f, "mid"),
            Category::High => write!(f, "high"),
        }
    }
}

/// How CTAs reach a data object — determines the mapping policies' hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Row-blocked: CTA `i` streams the `i`-th contiguous slice.
    Blocked,
    /// Column-strided: every CTA strides across the whole object.
    Strided,
    /// Gathered: data-dependent, effectively random.
    Irregular,
}

/// One data object of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetDecl {
    /// Footprint in bytes.
    pub bytes: u64,
    /// Access structure.
    pub class: AccessClass,
}

impl DatasetDecl {
    /// The compiler hint a LASP/CODA pass would derive, in pages of
    /// `page_shift`, for an `n_chiplets` MCM.
    pub fn hint(&self, page_shift: u32, n_chiplets: usize) -> DataHint {
        let pages = (self.bytes >> page_shift).max(1);
        match self.class {
            AccessClass::Blocked => DataHint::linear((pages / n_chiplets as u64).max(1)),
            // Strided data has row-level locality at best: interleave
            // finely so every chiplet holds a share of each column.
            AccessClass::Strided => DataHint::linear(1),
            AccessClass::Irregular => DataHint::irregular(),
        }
    }
}

/// The 19 applications of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum AppId {
    Gemv,
    Corr,
    Adi,
    Fft,
    Pr,
    Fwt,
    Cov,
    Sssp,
    Jac2d,
    Fdtd2d,
    Lu,
    Nw,
    Atax,
    St2d,
    Matr,
    Gups,
    Bicg,
    Spmv,
    Gesm,
}

impl AppId {
    /// All applications in Table I order.
    pub fn all() -> [AppId; 19] {
        use AppId::*;
        [
            Gemv, Corr, Adi, Fft, Pr, Fwt, Cov, Sssp, Jac2d, Fdtd2d, Lu, Nw, Atax, St2d, Matr,
            Gups, Bicg, Spmv, Gesm,
        ]
    }

    /// Table I abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Gemv => "gemv",
            AppId::Corr => "corr",
            AppId::Adi => "adi",
            AppId::Fft => "fft",
            AppId::Pr => "pr",
            AppId::Fwt => "fwt",
            AppId::Cov => "cov",
            AppId::Sssp => "sssp",
            AppId::Jac2d => "jac2d",
            AppId::Fdtd2d => "fdtd2d",
            AppId::Lu => "lu",
            AppId::Nw => "nw",
            AppId::Atax => "atax",
            AppId::St2d => "st2d",
            AppId::Matr => "matr",
            AppId::Gups => "gups",
            AppId::Bicg => "bicg",
            AppId::Spmv => "spmv",
            AppId::Gesm => "gesm",
        }
    }

    /// Full application name (Table I).
    pub fn full_name(&self) -> &'static str {
        match self {
            AppId::Gemv => "gemver",
            AppId::Corr => "correlation",
            AppId::Adi => "adi",
            AppId::Fft => "fft",
            AppId::Pr => "pagerank",
            AppId::Fwt => "fastwalshtransform",
            AppId::Cov => "covariance",
            AppId::Sssp => "sssp",
            AppId::Jac2d => "jacobi2d",
            AppId::Fdtd2d => "fdtd2d",
            AppId::Lu => "lu",
            AppId::Nw => "nw",
            AppId::Atax => "atax",
            AppId::St2d => "stencil2d",
            AppId::Matr => "matrixtranspose",
            AppId::Gups => "gups",
            AppId::Bicg => "bicg",
            AppId::Spmv => "spmv",
            AppId::Gesm => "gesummv",
        }
    }

    /// The L2 TLB MPKI the paper measured (Table I).
    pub fn paper_mpki(&self) -> f64 {
        match self {
            AppId::Gemv => 0.015,
            AppId::Corr => 0.045,
            AppId::Adi => 0.051,
            AppId::Fft => 0.48,
            AppId::Pr => 0.828,
            AppId::Fwt => 2.27,
            AppId::Cov => 3.24,
            AppId::Sssp => 3.38,
            AppId::Jac2d => 4.78,
            AppId::Fdtd2d => 10.12,
            AppId::Lu => 17.14,
            AppId::Nw => 21.56,
            AppId::Atax => 34.28,
            AppId::St2d => 46.90,
            AppId::Matr => 174.99,
            AppId::Gups => 724.80,
            AppId::Bicg => 2128.63,
            AppId::Spmv => 3835.95,
            AppId::Gesm => 4762.86,
        }
    }

    /// Table I class.
    pub fn category(&self) -> Category {
        Category::of_mpki(self.paper_mpki())
    }

    /// The default (scale-1) workload.
    pub fn spec(self) -> WorkloadSpec {
        WorkloadSpec {
            app: self,
            scale: 1,
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A runnable workload: an application at a footprint scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// The application.
    pub app: AppId,
    /// Footprint multiplier (Fig 24-right uses 16; matrix dimensions grow
    /// by √scale).
    pub scale: u64,
}

impl WorkloadSpec {
    /// Linear dimension factor (√scale, so footprints grow by `scale`).
    fn s(&self) -> u64 {
        (self.scale as f64).sqrt().round().max(1.0) as u64
    }

    /// Per-app geometry, calibrated against the scaled `SystemConfig` so
    /// the measured L2 TLB MPKI lands in the paper's class (Table I); the
    /// within-class ordering holds only in part (EXPERIMENTS.md). Matrices are
    /// `rows × cols` of 8-byte elements; `cols × 8` is the row pitch that
    /// controls how many pages an uncoalesced (column) warp touches.
    fn dims(&self) -> AppDims {
        let s = self.s();
        match self.app {
            AppId::Gemv => AppDims {
                rows: 256 * s,
                cols: 256 * s,
                aux: 2 << 10,
                passes: 12,
            },
            AppId::Corr => AppDims {
                rows: 128 * s,
                cols: 128 * s,
                aux: 0,
                passes: 1,
            },
            AppId::Adi => AppDims {
                rows: 256 * s,
                cols: 256 * s,
                aux: 0,
                passes: 8,
            },
            AppId::Fft => AppDims {
                rows: 0,
                cols: 0,
                aux: (2 << 20) * self.scale,
                passes: 1,
            },
            AppId::Pr => AppDims {
                rows: 0,
                cols: 0,
                aux: (1 << 20) * self.scale,
                passes: 1,
            },
            AppId::Fwt => AppDims {
                rows: 0,
                cols: 0,
                aux: (4 << 20) * self.scale,
                passes: 1,
            },
            AppId::Cov => AppDims {
                rows: 1536 * s,
                cols: 512 * s,
                aux: 0,
                passes: 2,
            },
            AppId::Sssp => AppDims {
                rows: 0,
                cols: 0,
                aux: (1 << 20) * self.scale,
                passes: 1,
            },
            AppId::Jac2d => AppDims {
                rows: 1024 * s,
                cols: 512 * s,
                aux: 0,
                passes: 1,
            },
            AppId::Fdtd2d => AppDims {
                rows: 1024 * s,
                cols: 512 * s,
                aux: 0,
                passes: 1,
            },
            AppId::Lu => AppDims {
                rows: 3072 * s,
                cols: 256 * s,
                aux: 0,
                passes: 2,
            },
            AppId::Nw => AppDims {
                rows: 64,
                cols: 64,
                aux: 96,
                passes: 1,
            },
            AppId::Atax => AppDims {
                rows: 2048 * s,
                cols: 256 * s,
                aux: 256 * s * ELEM,
                passes: 1,
            },
            AppId::St2d => AppDims {
                rows: 2048 * s,
                cols: 256 * s,
                aux: 0,
                passes: 1,
            },
            AppId::Matr => AppDims {
                rows: 2048 * s,
                cols: 512 * s,
                aux: 0,
                passes: 1,
            },
            AppId::Gups => AppDims {
                rows: 0,
                cols: 0,
                aux: (8 << 20) * self.scale,
                passes: 1,
            },
            AppId::Bicg => AppDims {
                rows: 2048 * s,
                cols: 512 * s,
                aux: 512 * s * ELEM,
                passes: 1,
            },
            AppId::Spmv => AppDims {
                rows: 0,
                cols: 0,
                aux: (16 << 20) * self.scale,
                passes: 1,
            },
            AppId::Gesm => AppDims {
                rows: 2048 * s,
                cols: 512 * s,
                aux: 0,
                passes: 1,
            },
        }
    }

    /// The application's data objects, in allocation order.
    pub fn datasets(&self) -> Vec<DatasetDecl> {
        use AccessClass::*;
        let d = self.dims();
        let mat = d.rows * d.cols * ELEM;
        match self.app {
            AppId::Gemv => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: d.aux,
                    class: Blocked,
                },
            ],
            AppId::Corr => vec![DatasetDecl {
                bytes: mat,
                class: Strided,
            }],
            AppId::Adi => vec![DatasetDecl {
                bytes: mat,
                class: Blocked,
            }],
            AppId::Fft => vec![DatasetDecl {
                bytes: d.aux,
                class: Blocked,
            }],
            AppId::Pr => vec![
                DatasetDecl {
                    bytes: d.aux,
                    class: Irregular,
                },
                DatasetDecl {
                    bytes: 512 << 10,
                    class: Blocked,
                },
            ],
            AppId::Fwt => vec![DatasetDecl {
                bytes: d.aux,
                class: Blocked,
            }],
            AppId::Cov => vec![DatasetDecl {
                bytes: mat,
                class: Blocked,
            }],
            AppId::Sssp => vec![
                DatasetDecl {
                    bytes: d.aux,
                    class: Irregular,
                },
                DatasetDecl {
                    bytes: 512 << 10,
                    class: Blocked,
                },
            ],
            AppId::Jac2d => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
            ],
            AppId::Fdtd2d => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
            ],
            AppId::Lu => vec![DatasetDecl {
                bytes: mat,
                class: Blocked,
            }],
            AppId::Nw => {
                // One DP tile per CTA wave; `aux` holds the tile count.
                let tile = d.rows * d.cols * ELEM;
                vec![DatasetDecl {
                    bytes: tile * d.aux,
                    class: Strided,
                }]
            }
            AppId::Atax => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Strided,
                },
                DatasetDecl {
                    bytes: d.aux,
                    class: Blocked,
                },
            ],
            AppId::St2d => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
            ],
            AppId::Matr => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: mat,
                    class: Strided,
                },
            ],
            AppId::Gups => vec![DatasetDecl {
                bytes: d.aux,
                class: Irregular,
            }],
            AppId::Bicg => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Strided,
                },
                DatasetDecl {
                    bytes: d.aux,
                    class: Blocked,
                },
            ],
            AppId::Spmv => vec![
                DatasetDecl {
                    bytes: 512 << 10,
                    class: Blocked,
                },
                DatasetDecl {
                    bytes: d.aux,
                    class: Irregular,
                },
            ],
            AppId::Gesm => vec![
                DatasetDecl {
                    bytes: mat,
                    class: Strided,
                },
                DatasetDecl {
                    bytes: mat,
                    class: Strided,
                },
            ],
        }
    }

    /// Number of CTAs the kernel launches (enough for several waves per
    /// CU).
    pub fn n_ctas(&self, total_cus: usize) -> u64 {
        (total_cus as u64 * 4).max(8)
    }

    /// Warp-level instructions per memory instruction (compute intensity).
    pub fn insns_per_warp(&self) -> u64 {
        match self.app {
            AppId::Gemv => 24,
            AppId::Corr => 20,
            AppId::Adi => 20,
            AppId::Fft => 24,
            AppId::Pr => 12,
            AppId::Fwt => 8,
            AppId::Cov => 12,
            AppId::Sssp => 6,
            AppId::Jac2d => 8,
            AppId::Fdtd2d => 4,
            AppId::Lu => 16,
            AppId::Nw => 4,
            AppId::Atax => 18,
            AppId::St2d => 2,
            AppId::Matr => 20,
            AppId::Gups => 40,
            AppId::Bicg => 7,
            AppId::Spmv => 8,
            AppId::Gesm => 6,
        }
    }

    /// Builds CTA `cta`'s access stream given each dataset's base virtual
    /// address (allocation order of [`datasets`](Self::datasets)).
    ///
    /// # Panics
    ///
    /// Panics if `bases` does not match the dataset count.
    pub fn cta_pattern(
        &self,
        cta: u64,
        n_ctas: u64,
        bases: &[VirtAddr],
        seed: u64,
    ) -> Box<dyn AccessPattern> {
        self.cta_pattern_tapped(cta, n_ctas, bases, &mut SeedTap::new(seed), 0)
    }

    /// [`cta_pattern`](Self::cta_pattern) with the seed behind `tap`,
    /// XORed with `salt`. Only the apps whose streams draw random numbers
    /// read the tap; the others leave it untouched.
    ///
    /// # Panics
    ///
    /// Panics if `bases` does not match the dataset count.
    pub fn cta_pattern_tapped(
        &self,
        cta: u64,
        n_ctas: u64,
        bases: &[VirtAddr],
        tap: &mut SeedTap,
        salt: u64,
    ) -> Box<dyn AccessPattern> {
        let ds = self.datasets();
        assert_eq!(bases.len(), ds.len(), "one base per dataset required");
        let insns = self.insns_per_warp();
        let d = self.dims();
        let mut rng = || tap.rng(salt ^ (cta.wrapping_mul(0x9E37_79B9)) ^ 0xBA22E);
        // CTA's slice of an `n`-element space.
        let slice = |n: u64| -> (u64, u64) {
            let lo = n * cta / n_ctas;
            let hi = n * (cta + 1) / n_ctas;
            (lo, hi.saturating_sub(lo))
        };
        let row_pitch = d.cols * ELEM;
        let row_slice = |base: VirtAddr, passes: u32| -> Box<dyn AccessPattern> {
            let (r0, rn) = slice(d.rows);
            Box::new(RowStream::new(
                VirtAddr(base.0 + r0 * row_pitch),
                rn.max(1) * row_pitch,
                passes,
            ))
        };
        let boxed: Box<dyn AccessPattern> = match self.app {
            AppId::Gemv => Box::new(Chain::new(
                vec![
                    row_slice(bases[0], d.passes as u32),
                    Box::new(RowStream::new(bases[1], d.aux, 2)),
                ],
                insns,
            )),
            AppId::Corr => {
                // Column-pair correlation: the matrix is small and hot;
                // each CTA walks every column once (pitch 1 KiB keeps
                // lanes page-coalesced).
                Box::new(ColStream::new(bases[0], d.rows, d.cols).with_insns(insns))
            }
            AppId::Adi => {
                let (r0, rn) = slice(d.rows);
                Box::new(Chain::new(
                    vec![
                        Box::new(
                            StencilRows::new(bases[0], d.cols, r0, rn.max(1))
                                .with_grid_rows(d.rows),
                        ),
                        Box::new(
                            StencilRows::new(bases[0], d.cols, r0, rn.max(1))
                                .with_grid_rows(d.rows),
                        ),
                        Box::new(
                            ColStream::new(bases[0], d.rows, d.cols).with_rows(r0, r0 + rn.max(1)),
                        ),
                    ],
                    insns,
                ))
            }
            AppId::Fft | AppId::Fwt => {
                // Past `aux / 4 KiB` CTAs (fft at paper scale) the 4 KiB
                // segments wrap around the dataset instead of running off
                // its end; below that the offset is `cta * seg` unchanged.
                let seg = (d.aux / n_ctas).max(4096);
                let off = (cta * seg) % d.aux;
                Box::new(Butterfly::new(VirtAddr(bases[0].0 + off), seg).with_insns(insns))
            }
            AppId::Pr => Box::new(Chain::new(
                vec![
                    Box::new(ZipfGather::new(bases[0], d.aux, 768, rng())),
                    Box::new(RowStream::new(bases[1], (512u64 << 10) / n_ctas, 1)),
                ],
                insns,
            )),
            AppId::Cov => row_slice_with_insns(row_slice(bases[0], d.passes as u32), insns),
            AppId::Sssp => Box::new(Chain::new(
                vec![
                    Box::new(ZipfGather::new(bases[0], d.aux, 512, rng())),
                    Box::new(RowStream::new(bases[1], (512u64 << 10) / n_ctas, 1)),
                ],
                insns,
            )),
            AppId::Jac2d => {
                let (r0, rn) = slice(d.rows);
                Box::new(
                    StencilRows::new(bases[0], d.cols, r0, rn.max(1))
                        .with_grid_rows(d.rows)
                        .with_write_base(bases[1])
                        .with_insns(insns),
                )
            }
            AppId::Fdtd2d => {
                let (r0, rn) = slice(d.rows);
                let st = |from: usize, to: usize| -> Box<dyn AccessPattern> {
                    Box::new(
                        StencilRows::new(bases[from], d.cols, r0, rn.max(1))
                            .with_grid_rows(d.rows)
                            .with_write_base(bases[to]),
                    )
                };
                Box::new(Chain::new(vec![st(0, 2), st(1, 2), st(2, 0)], insns))
            }
            AppId::Lu => {
                // Streaming row elimination plus scattered pivot-column
                // reads (one page per lane across the trailing matrix).
                let bytes = d.rows * d.cols * ELEM;
                Box::new(Chain::new(
                    vec![
                        row_slice(bases[0], d.passes as u32),
                        Box::new(RandGather::new(bases[0], bytes, 2, rng())),
                    ],
                    insns,
                ))
            }
            AppId::Nw => {
                // One DP tile per CTA (tiles cycle).
                let tile_bytes = d.rows * d.cols * ELEM;
                let t = cta % d.aux;
                Box::new(
                    Wavefront::new(VirtAddr(bases[0].0 + t * tile_bytes), d.rows).with_insns(insns),
                )
            }
            AppId::Atax => {
                // y = Aᵀ(Ax): the transposed pass gathers one page per
                // lane across A.
                let bytes = d.rows * d.cols * ELEM;
                Box::new(Chain::new(
                    vec![
                        row_slice(bases[0], 1),
                        Box::new(RandGather::new(bases[0], bytes, 2, rng())),
                        Box::new(RowStream::new(bases[1], d.aux, 1)),
                    ],
                    insns,
                ))
            }
            AppId::St2d => {
                // 5-point row stencil plus a short column sweep at the
                // slice boundary (halo columns), the SHOC kernel's
                // column-major register-tiling pass.
                let (r0, rn) = slice(d.rows);
                let (c0, _) = slice(d.cols);
                Box::new(Chain::new(
                    vec![
                        Box::new(
                            StencilRows::new(bases[0], d.cols, r0, rn.max(1))
                                .with_grid_rows(d.rows)
                                .with_write_base(bases[1]),
                        ),
                        Box::new(
                            ColStream::new(
                                VirtAddr(bases[0].0 + r0 * d.cols * ELEM),
                                512.min(d.rows - r0).max(1),
                                d.cols,
                            )
                            .with_cols(c0, c0 + 2),
                        ),
                    ],
                    insns,
                ))
            }
            AppId::Matr => {
                // Transposed writes: every lane of a store lands a row
                // apart — one page per lane, scattered over the whole
                // output matrix.
                let _ = slice(d.cols);
                let bytes = d.rows * d.cols * ELEM;
                Box::new(Chain::new(
                    vec![
                        row_slice(bases[0], 1),
                        Box::new(RandGather::new(bases[1], bytes, 48, rng())),
                    ],
                    insns,
                ))
            }
            AppId::Gups => Box::new(RandGather::new(bases[0], d.aux, 96, rng()).with_insns(insns)),
            AppId::Bicg => {
                // q = A p (streaming rows) then s = Aᵀ r (page-wide
                // gather over the transposed layout).
                let bytes = d.rows * d.cols * ELEM;
                Box::new(Chain::new(
                    vec![
                        row_slice(bases[0], 1),
                        Box::new(RandGather::new(bases[0], bytes, 128, rng())),
                        Box::new(RowStream::new(bases[1], d.aux, 1)),
                    ],
                    insns,
                ))
            }
            AppId::Spmv => Box::new(Chain::new(
                vec![
                    Box::new(RowStream::new(bases[0], (512u64 << 10) / n_ctas, 1)),
                    Box::new(RandGather::new(bases[1], d.aux, 96, rng())),
                ],
                insns,
            )),
            AppId::Gesm => {
                // gesummv's transposed, column-major accesses behave as
                // page-wide gathers over both matrices: essentially every
                // lane of every memory instruction touches a fresh page —
                // the highest-pressure stream in Table I.
                let bytes = d.rows * d.cols * ELEM;
                let mut r2 = rng();
                let rb = r2.fork();
                Box::new(Chain::new(
                    vec![
                        Box::new(RandGather::new(bases[0], bytes, 96, r2)),
                        Box::new(RandGather::new(bases[1], bytes, 96, rb)),
                    ],
                    insns,
                ))
            }
        };
        boxed
    }
}

/// Per-app geometry.
#[derive(Debug, Clone, Copy)]
struct AppDims {
    rows: u64,
    cols: u64,
    /// App-specific extra: vector bytes, table bytes, or tile count.
    aux: u64,
    passes: u64,
}

fn row_slice_with_insns(p: Box<dyn AccessPattern>, insns: u64) -> Box<dyn AccessPattern> {
    Box::new(Chain::new(vec![p], insns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_apps_with_unique_names() {
        let apps = AppId::all();
        assert_eq!(apps.len(), 19);
        let names: std::collections::BTreeSet<_> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn categories_match_table1() {
        assert_eq!(AppId::Gemv.category(), Category::Low);
        assert_eq!(AppId::Pr.category(), Category::Low);
        assert_eq!(AppId::Fwt.category(), Category::Mid);
        assert_eq!(AppId::St2d.category(), Category::Mid);
        assert_eq!(AppId::Matr.category(), Category::High);
        assert_eq!(AppId::Gesm.category(), Category::High);
        let low = AppId::all()
            .iter()
            .filter(|a| a.category() == Category::Low)
            .count();
        let high = AppId::all()
            .iter()
            .filter(|a| a.category() == Category::High)
            .count();
        assert_eq!(low, 5);
        assert_eq!(high, 5);
    }

    #[test]
    fn every_app_yields_accesses() {
        for app in AppId::all() {
            let spec = app.spec();
            let ds = spec.datasets();
            assert!(!ds.is_empty(), "{app}: no datasets");
            // Fake disjoint bases 256 MiB apart.
            let bases: Vec<VirtAddr> = (0..ds.len())
                .map(|i| VirtAddr((i as u64 + 1) << 28))
                .collect();
            let mut p = spec.cta_pattern(0, spec.n_ctas(32), &bases, 42);
            let mut count = 0u64;
            while let Some(w) = p.next_warp() {
                assert!(!w.addrs.is_empty(), "{app}: empty warp");
                count += 1;
                if count > 2_000_000 {
                    panic!("{app}: unbounded pattern");
                }
            }
            assert!(count > 0, "{app}: empty stream");
        }
    }

    #[test]
    fn accesses_stay_within_datasets() {
        // Each machine preset's workload scale and total CU count:
        // `smoke_config` (4 chiplets × 2 CUs), `SystemConfig::scaled`
        // (32 CUs) and `SystemConfig::paper` (256 CUs), all at scale 1.
        for (preset, scale, cus) in [("smoke", 1, 8), ("scaled", 1, 32), ("paper", 1, 256)] {
            for app in AppId::all() {
                check_within_datasets(WorkloadSpec { app, scale }, cus, preset);
            }
        }
    }

    fn check_within_datasets(spec: WorkloadSpec, total_cus: usize, preset: &str) {
        let app = spec.app;
        let ds = spec.datasets();
        let bases: Vec<VirtAddr> = {
            let mut next = 1u64 << 30;
            ds.iter()
                .map(|d| {
                    let b = VirtAddr(next);
                    next += d.bytes + (1 << 24);
                    b
                })
                .collect()
        };
        let n_ctas = spec.n_ctas(total_cus);
        for cta in [0, n_ctas / 2, n_ctas - 1] {
            let mut p = spec.cta_pattern(cta, n_ctas, &bases, 1);
            let mut seen = 0;
            while let Some(w) = p.next_warp() {
                for a in &w.addrs {
                    let inside = ds
                        .iter()
                        .zip(&bases)
                        .any(|(d, b)| (b.0..b.0 + d.bytes).contains(&a.0));
                    assert!(
                        inside,
                        "{app} at {preset}: cta {cta} addr {a} outside datasets"
                    );
                }
                seen += 1;
                if seen > 100_000 {
                    break;
                }
            }
        }
    }

    #[test]
    fn deterministic_streams() {
        let spec = AppId::Gups.spec();
        let bases = [VirtAddr(1 << 30)];
        let a: Vec<_> = {
            let mut p = spec.cta_pattern(3, 64, &bases, 9);
            std::iter::from_fn(|| p.next_warp()).collect()
        };
        let b: Vec<_> = {
            let mut p = spec.cta_pattern(3, 64, &bases, 9);
            std::iter::from_fn(|| p.next_warp()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn scale_grows_footprint() {
        let d1: u64 = AppId::Bicg.spec().datasets().iter().map(|d| d.bytes).sum();
        let d16: u64 = WorkloadSpec {
            app: AppId::Bicg,
            scale: 16,
        }
        .datasets()
        .iter()
        .map(|d| d.bytes)
        .sum();
        assert!(d16 >= 12 * d1, "16x scale should grow footprint ~16x");
    }

    #[test]
    fn hints_follow_access_class() {
        let blocked = DatasetDecl {
            bytes: 1 << 20,
            class: AccessClass::Blocked,
        };
        let h = blocked.hint(12, 4);
        assert_eq!(h.locality_gran, Some(64));
        assert!(!h.irregular);
        let strided = DatasetDecl {
            bytes: 1 << 20,
            class: AccessClass::Strided,
        };
        assert_eq!(strided.hint(12, 4).locality_gran, Some(1));
        let irr = DatasetDecl {
            bytes: 1 << 20,
            class: AccessClass::Irregular,
        };
        assert!(irr.hint(12, 4).irregular);
    }
}
