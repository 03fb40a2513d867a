//! Reusable warp-level access generators.
//!
//! Every workload kernel is assembled from these parts. All generators are
//! deterministic given their construction arguments (random ones take an
//! explicit [`Rng`]).

use barre_gpu::pattern::{AccessPattern, WarpAccess, WARP_LANES};
use barre_mem::VirtAddr;
use barre_sim::Rng;

/// Element size used by every kernel (f64 / 64-bit indices).
pub const ELEM: u64 = 8;

/// Bytes one fully-coalesced warp instruction covers.
pub const WARP_BYTES: u64 = WARP_LANES as u64 * ELEM;

/// A chain of patterns executed back to back (multi-phase kernels).
pub struct Chain {
    parts: Vec<Box<dyn AccessPattern>>,
    current: usize,
    insns: u64,
}

impl Chain {
    /// Chains `parts` in order.
    pub fn new(parts: Vec<Box<dyn AccessPattern>>, insns_per_access: u64) -> Self {
        Self {
            parts,
            current: 0,
            insns: insns_per_access.max(1),
        }
    }
}

impl AccessPattern for Chain {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        while let Some(part) = self.parts.get_mut(self.current) {
            if part.next_into(out) {
                return true;
            }
            self.current += 1;
        }
        false
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// Coalesced row-major stream over `[base, base + bytes)`, optionally
/// repeated for multiple passes, optionally writing.
pub struct RowStream {
    base: u64,
    bytes: u64,
    offset: u64,
    passes_left: u32,
    write: bool,
    insns: u64,
}

impl RowStream {
    /// Streams `bytes` from `base`, `passes` times.
    pub fn new(base: VirtAddr, bytes: u64, passes: u32) -> Self {
        Self {
            base: base.0,
            bytes,
            offset: 0,
            passes_left: passes,
            write: false,
            insns: 10,
        }
    }

    /// Makes the stream a store stream.
    pub fn writing(mut self) -> Self {
        self.write = true;
        self
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for RowStream {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.passes_left == 0 || self.bytes == 0 {
            return false;
        }
        out.set(
            [
                VirtAddr(self.base + self.offset),
                VirtAddr(self.base + (self.offset + WARP_BYTES - 1).min(self.bytes - 1)),
            ],
            self.write,
        );
        self.offset += WARP_BYTES;
        if self.offset >= self.bytes {
            self.offset = 0;
            self.passes_left -= 1;
        }
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// Column-major traversal of a row-major matrix: each warp instruction
/// gathers 32 lanes separated by the row pitch — one page per lane when
/// the pitch reaches the page size. This is the address stream of
/// `gesummv`/`bicg`/`atax` transposed passes and `matrixtranspose` writes.
pub struct ColStream {
    base: u64,
    pitch: u64,
    rows: u64,
    cols: u64,
    col: u64,
    col_end: u64,
    row_block: u64,
    block_offset: u64,
    write: bool,
    insns: u64,
}

impl ColStream {
    /// Walks a `rows × cols`-element matrix at `base` column by column;
    /// each warp covers 32 consecutive rows of one column.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(base: VirtAddr, rows: u64, cols: u64) -> Self {
        assert!(rows > 0 && cols > 0, "empty matrix");
        Self {
            base: base.0,
            pitch: cols * ELEM,
            rows,
            cols,
            col: 0,
            col_end: cols,
            row_block: 0,
            block_offset: 0,
            write: false,
            insns: 10,
        }
    }

    /// Rotates the starting row block (stagger concurrent CTAs so their
    /// column sweeps do not touch the same pages in lockstep).
    pub fn rotated(mut self, blocks: u64) -> Self {
        self.block_offset = blocks;
        self
    }

    /// Restricts the walk to rows `[lo, hi)` — the per-CTA row-block
    /// slice of a transposed pass (each CTA owns distinct pages).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn with_rows(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo < hi && hi <= self.rows, "bad row range {lo}..{hi}");
        self.base += lo * self.pitch;
        self.rows = hi - lo;
        self
    }

    /// Restricts the walk to columns `[lo, hi)` (CTA work slicing).
    pub fn with_cols(mut self, lo: u64, hi: u64) -> Self {
        self.col = lo.min(self.cols);
        self.col_end = hi.min(self.cols);
        self
    }

    /// Makes the stream a store stream.
    pub fn writing(mut self) -> Self {
        self.write = true;
        self
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for ColStream {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.col >= self.col_end {
            return false;
        }
        let total_blocks = self.rows.div_ceil(WARP_LANES as u64);
        let block = (self.row_block + self.block_offset) % total_blocks;
        let first_row = block * WARP_LANES as u64;
        let lanes = (self.rows - first_row).min(WARP_LANES as u64);
        out.set(
            (0..lanes)
                .map(|l| VirtAddr(self.base + (first_row + l) * self.pitch + self.col * ELEM)),
            self.write,
        );
        self.row_block += 1;
        if self.row_block * WARP_LANES as u64 >= self.rows {
            self.row_block = 0;
            self.col += 1;
        }
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// Uniform random 8-byte updates over a table (GUPS).
pub struct RandGather {
    base: u64,
    bytes: u64,
    remaining: u64,
    rng: Rng,
    write: bool,
    insns: u64,
}

impl RandGather {
    /// Issues `count` warp instructions of 32 uniform random lanes each.
    pub fn new(base: VirtAddr, bytes: u64, count: u64, rng: Rng) -> Self {
        Self {
            base: base.0,
            bytes: bytes.max(ELEM),
            remaining: count,
            rng,
            write: true,
            insns: 10,
        }
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for RandGather {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let slots = self.bytes / ELEM;
        let (base, rng) = (self.base, &mut self.rng);
        out.set(
            (0..WARP_LANES).map(|_| VirtAddr(base + rng.next_below(slots) * ELEM)),
            self.write,
        );
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// Power-law (Zipf-like) gathers over a table — CSR column accesses of
/// graph kernels (`pagerank`, `sssp`) and `spmv`. Hot entries concentrate
/// on low indices, giving partial TLB reuse.
pub struct ZipfGather {
    base: u64,
    bytes: u64,
    remaining: u64,
    rng: Rng,
    insns: u64,
}

impl ZipfGather {
    /// Issues `count` warp instructions of 32 Zipf-distributed lanes.
    pub fn new(base: VirtAddr, bytes: u64, count: u64, rng: Rng) -> Self {
        Self {
            base: base.0,
            bytes: bytes.max(ELEM),
            remaining: count,
            rng,
            insns: 10,
        }
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for ZipfGather {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let slots = self.bytes / ELEM;
        let (base, rng) = (self.base, &mut self.rng);
        out.set(
            (0..WARP_LANES).map(|_| VirtAddr(base + rng.zipf_like(slots) * ELEM)),
            false,
        );
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// Butterfly passes with doubling strides (`fft`, `fastwalshtransform`):
/// pass `p` pairs element `i` with `i + 2^p`; warps stay coalesced within
/// each half, so every warp instruction touches two blocks.
pub struct Butterfly {
    base: u64,
    bytes: u64,
    stride: u64,
    offset: u64,
    insns: u64,
}

impl Butterfly {
    /// Runs log2(bytes/ELEM) passes over `bytes` from `base`, starting at
    /// stride `ELEM`.
    pub fn new(base: VirtAddr, bytes: u64) -> Self {
        Self {
            base: base.0,
            bytes: bytes.max(2 * WARP_BYTES),
            stride: WARP_BYTES,
            offset: 0,
            insns: 10,
        }
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for Butterfly {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.stride >= self.bytes {
            return false;
        }
        // Touch the pair (offset, offset + stride).
        out.set(
            [
                VirtAddr(self.base + self.offset),
                VirtAddr(self.base + self.offset + self.stride),
            ],
            true,
        );
        self.offset += WARP_BYTES;
        // Skip the upper half of each 2*stride block.
        if self.offset % (2 * self.stride) >= self.stride {
            self.offset += self.stride;
        }
        if self.offset + self.stride >= self.bytes {
            self.offset = 0;
            self.stride *= 2;
        }
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// 5-point stencil sweep over a 2-D grid slice: for each output row,
/// streams the row above, the row itself, the row below, and the output
/// row (`jacobi2d`, `stencil2d`, `fdtd2d` per field).
pub struct StencilRows {
    base: u64,
    write_base: u64,
    pitch: u64,
    first_row: u64,
    rows: u64,
    grid_rows: u64,
    row: u64,
    phase: u8,
    offset: u64,
    insns: u64,
}

impl StencilRows {
    /// Sweeps rows `[first_row, first_row + rows)` of a grid with
    /// `cols`-element rows at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn new(base: VirtAddr, cols: u64, first_row: u64, rows: u64) -> Self {
        assert!(cols > 0, "empty grid");
        Self {
            base: base.0,
            write_base: base.0,
            pitch: cols * ELEM,
            first_row,
            rows,
            grid_rows: first_row + rows,
            row: 0,
            phase: 0,
            offset: 0,
            insns: 10,
        }
    }

    /// Declares the full grid height so halo reads of interior slices can
    /// reach one row beyond the slice (clamped at the grid edge). Halo
    /// rows are exactly the pages neighbouring CTA slices share.
    pub fn with_grid_rows(mut self, grid_rows: u64) -> Self {
        self.grid_rows = grid_rows.max(self.first_row + self.rows);
        self
    }

    /// Writes results into a second grid (`jacobi2d`'s B, `fdtd2d`'s
    /// cross-field updates) instead of in place.
    pub fn with_write_base(mut self, write_base: VirtAddr) -> Self {
        self.write_base = write_base.0;
        self
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for StencilRows {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.row >= self.rows {
            return false;
        }
        let r = self.first_row + self.row;
        let neighbor = match self.phase {
            0 => r.saturating_sub(1),
            1 => r,
            2 => (r + 1).min(self.grid_rows.saturating_sub(1)),
            _ => r,
        };
        let write = self.phase == 3;
        let grid = if write { self.write_base } else { self.base };
        let addr = grid + neighbor * self.pitch + self.offset;
        out.set([VirtAddr(addr), VirtAddr(addr + WARP_BYTES - 1)], write);
        self.phase += 1;
        if self.phase == 4 {
            self.phase = 0;
            self.offset += WARP_BYTES;
            if self.offset >= self.pitch {
                self.offset = 0;
                self.row += 1;
            }
        }
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

/// Anti-diagonal wavefront over a 2-D dynamic-programming table
/// (`needleman-wunsch`): each warp instruction reads 32 cells along an
/// anti-diagonal — lane addresses separated by `pitch − ELEM`.
pub struct Wavefront {
    base: u64,
    pitch_elems: u64,
    n: u64,
    diag: u64,
    block: u64,
    insns: u64,
}

impl Wavefront {
    /// Walks the anti-diagonals of an `n × n` table at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(base: VirtAddr, n: u64) -> Self {
        assert!(n > 0, "empty table");
        Self {
            base: base.0,
            pitch_elems: n,
            n,
            diag: 1,
            block: 0,
            insns: 10,
        }
    }

    /// Overrides instructions per access.
    pub fn with_insns(mut self, insns: u64) -> Self {
        self.insns = insns.max(1);
        self
    }
}

impl AccessPattern for Wavefront {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.diag >= 2 * self.n - 1 {
            return false;
        }
        // Cells on diagonal d: (i, d - i) for valid i.
        let lo = self.diag.saturating_sub(self.n - 1);
        let hi = self.diag.min(self.n - 1);
        let len = hi - lo + 1;
        let first = lo + self.block * WARP_LANES as u64;
        if first > hi {
            self.diag += 1;
            self.block = 0;
            return self.next_into(out);
        }
        let lanes = (hi - first + 1).min(WARP_LANES as u64);
        let (base, pitch, diag) = (self.base, self.pitch_elems, self.diag);
        out.set(
            (first..first + lanes).map(|i| VirtAddr(base + (i * pitch + diag - i) * ELEM)),
            true,
        );
        self.block += 1;
        if self.block * WARP_LANES as u64 >= len {
            self.block = 0;
            self.diag += 1;
        }
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut dyn AccessPattern) -> Vec<WarpAccess> {
        std::iter::from_fn(|| p.next_warp()).collect()
    }

    #[test]
    fn row_stream_is_sequential_and_repeats() {
        let mut p = RowStream::new(VirtAddr(0x1000), 512, 2);
        let a = drain(&mut p);
        assert_eq!(a.len(), 4); // 512/256 × 2 passes
        assert_eq!(a[0].addrs[0], VirtAddr(0x1000));
        assert_eq!(a[1].addrs[0], VirtAddr(0x1100));
        assert_eq!(a[2].addrs[0], VirtAddr(0x1000));
        assert!(!a[0].write);
    }

    #[test]
    fn row_stream_writing_marks_stores() {
        let mut p = RowStream::new(VirtAddr(0), 256, 1).writing();
        assert!(p.next_warp().unwrap().write);
    }

    #[test]
    fn col_stream_one_page_per_lane() {
        // 64 rows × 512 cols: pitch = 4096 bytes = one 4 KiB page per row.
        let mut p = ColStream::new(VirtAddr(0), 64, 512);
        let a = p.next_warp().unwrap();
        assert_eq!(a.addrs.len(), 32);
        // Lane addresses are one page apart.
        assert_eq!(a.addrs[1].0 - a.addrs[0].0, 4096);
        // Full drain covers rows/32 × cols warps.
        let rest = drain(&mut p);
        assert_eq!(rest.len() + 1, (64 / 32) * 512);
    }

    #[test]
    fn col_stream_handles_row_remainder() {
        let mut p = ColStream::new(VirtAddr(0), 40, 4);
        let a = p.next_warp().unwrap();
        assert_eq!(a.addrs.len(), 32);
        let b = p.next_warp().unwrap();
        assert_eq!(b.addrs.len(), 8);
    }

    #[test]
    fn rand_gather_bounded_and_deterministic() {
        let mk = || RandGather::new(VirtAddr(0x10000), 4096, 10, Rng::new(7));
        let a: Vec<_> = drain(&mut mk());
        let b: Vec<_> = drain(&mut mk());
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for w in &a {
            assert_eq!(w.addrs.len(), 32);
            for addr in &w.addrs {
                assert!((0x10000..0x11000).contains(&addr.0));
            }
        }
    }

    #[test]
    fn zipf_gather_skews_low() {
        let mut p = ZipfGather::new(VirtAddr(0), 1 << 20, 100, Rng::new(3));
        let a = drain(&mut p);
        let low = a
            .iter()
            .flat_map(|w| &w.addrs)
            .filter(|addr| addr.0 < (1 << 17))
            .count();
        let total = a.iter().map(|w| w.addrs.len()).sum::<usize>();
        assert!(low * 2 > total, "low fraction {low}/{total}");
    }

    #[test]
    fn butterfly_strides_double() {
        let mut p = Butterfly::new(VirtAddr(0), 4 * WARP_BYTES);
        let a = drain(&mut p);
        assert!(!a.is_empty());
        // First pass pairs offset and offset+WARP_BYTES.
        assert_eq!(a[0].addrs[1].0 - a[0].addrs[0].0, WARP_BYTES);
        // Last pass pairs the two halves.
        let last = a.last().unwrap();
        assert_eq!(last.addrs[1].0 - last.addrs[0].0, 2 * WARP_BYTES);
    }

    #[test]
    fn stencil_touches_three_rows_plus_store() {
        let mut p = StencilRows::new(VirtAddr(0), 32, 4, 1).with_grid_rows(8);
        let a = drain(&mut p);
        assert_eq!(a.len(), 4);
        let pitch = 32 * ELEM;
        assert_eq!(a[0].addrs[0].0, 3 * pitch);
        assert_eq!(a[1].addrs[0].0, 4 * pitch);
        assert_eq!(a[2].addrs[0].0, 5 * pitch);
        assert!(a[3].write);
    }

    #[test]
    fn wavefront_covers_all_diagonals() {
        let n = 8u64;
        let mut p = Wavefront::new(VirtAddr(0), n);
        let a = drain(&mut p);
        // Diagonals 1..2n-2 inclusive.
        let cells: usize = a.iter().map(|w| w.addrs.len()).sum();
        let expected: u64 = (1..2 * n - 1)
            .map(|d| d.min(n - 1).min(2 * n - 2 - d) + 1)
            .sum();
        assert_eq!(cells as u64, expected);
    }

    #[test]
    fn chain_runs_parts_in_order() {
        let mut c = Chain::new(
            vec![
                Box::new(RowStream::new(VirtAddr(0), 256, 1)),
                Box::new(RowStream::new(VirtAddr(0x10000), 256, 1)),
            ],
            5,
        );
        let a = drain(&mut c);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].addrs[0], VirtAddr(0));
        assert_eq!(a[1].addrs[0], VirtAddr(0x10000));
        assert_eq!(c.insns_per_access(), 5);
    }
}
