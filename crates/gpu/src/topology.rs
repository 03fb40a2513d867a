//! MCM-GPU topology.

use barre_mem::ChipletId;

/// Identifier of one compute unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CuId {
    /// Owning chiplet.
    pub chiplet: ChipletId,
    /// Shader array within the chiplet.
    pub sa: u8,
    /// CU within the shader array.
    pub cu: u8,
}

/// The MCM package structure.
///
/// # Example
///
/// ```
/// use barre_gpu::Topology;
/// let t = Topology::paper_default();
/// assert_eq!(t.total_cus(), 256);
/// assert_eq!(t.cus_per_chiplet(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// GPU chiplets in the package.
    pub n_chiplets: usize,
    /// Shader arrays per chiplet.
    pub sas_per_chiplet: usize,
    /// CUs per shader array.
    pub cus_per_sa: usize,
}

impl Topology {
    /// Table II: 4 chiplets × 4 SAs × 16 CUs = 256 CUs.
    pub fn paper_default() -> Self {
        Self {
            n_chiplets: 4,
            sas_per_chiplet: 4,
            cus_per_sa: 16,
        }
    }

    /// A scaled-down topology for fast experiment sweeps
    /// (4 chiplets × 2 SAs × 4 CUs = 32 CUs).
    pub fn scaled() -> Self {
        Self {
            n_chiplets: 4,
            sas_per_chiplet: 2,
            cus_per_sa: 4,
        }
    }

    /// Same shape with a different chiplet count (Fig 20 sweeps 2–16).
    pub fn with_chiplets(mut self, n: usize) -> Self {
        self.n_chiplets = n;
        self
    }

    /// CUs per chiplet.
    pub fn cus_per_chiplet(&self) -> usize {
        self.sas_per_chiplet * self.cus_per_sa
    }

    /// Total CUs in the package.
    pub fn total_cus(&self) -> usize {
        self.n_chiplets * self.cus_per_chiplet()
    }

    /// All chiplet ids.
    pub fn chiplets(&self) -> impl Iterator<Item = ChipletId> {
        (0..self.n_chiplets).map(|i| ChipletId(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let t = Topology::paper_default();
        assert_eq!(t.total_cus(), 256);
        assert_eq!(t.chiplets().count(), 4);
        assert_eq!(t.cus_per_chiplet(), 64);
    }

    #[test]
    fn with_chiplets_rescales() {
        let t = Topology::paper_default().with_chiplets(8);
        assert_eq!(t.total_cus(), 512);
    }
}
