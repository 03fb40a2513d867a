//! The inter-chiplet mesh.
//!
//! Table II: 768 GB/s aggregate mesh bandwidth, 32-cycle hop latency. Each
//! chiplet owns an outbound port with its share of the aggregate
//! bandwidth; a transfer occupies the sender's port (serialization +
//! queueing) and arrives a hop latency later. Intra-chiplet transfers are
//! free (they never leave the chiplet).

use barre_mem::ChipletId;
use barre_sim::{Cycle, Link};

/// The mesh interconnect.
///
/// # Example
///
/// ```
/// use barre_gpu::Mesh;
/// use barre_mem::ChipletId;
///
/// let mut m = Mesh::paper_default(4);
/// let t = m.send(0, ChipletId(0), ChipletId(1), 64);
/// assert_eq!(t, 0 + 1 + 32);
/// assert_eq!(m.send(10, ChipletId(2), ChipletId(2), 64), 10); // local
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    ports: Vec<Link>,
    latency: Cycle,
}

impl Mesh {
    /// Creates a mesh of `n_chiplets` ports, each with `latency` and
    /// `bytes_per_cycle` outbound bandwidth.
    pub fn new(n_chiplets: usize, latency: Cycle, bytes_per_cycle: u64) -> Self {
        Self {
            ports: (0..n_chiplets)
                .map(|_| Link::new(latency, bytes_per_cycle))
                .collect(),
            latency,
        }
    }

    /// Table II parameters: 32-cycle hops, 768 GB/s aggregate shared
    /// across the chiplets' outbound ports.
    pub fn paper_default(n_chiplets: usize) -> Self {
        let per_port = (768 / n_chiplets.max(1) as u64).max(1);
        Self::new(n_chiplets, 32, per_port)
    }

    /// Sends `bytes` from `from` to `to` at `now`; returns arrival time.
    /// Local transfers return immediately.
    pub fn send(&mut self, now: Cycle, from: ChipletId, to: ChipletId, bytes: u64) -> Cycle {
        if from == to {
            return now;
        }
        match self.ports.get_mut(from.index()) {
            Some(port) => port.send(now, bytes),
            // Every chiplet owns a port; a source outside the mesh has no
            // queue to wait in, only the hop.
            None => now.saturating_add(self.latency),
        }
    }

    /// Outbound backlog of `from`'s port — the congestion signal used for
    /// best-effort filter-update drops.
    pub fn backlog(&self, now: Cycle, from: ChipletId) -> Cycle {
        self.ports[from.index()].backlog(now)
    }

    /// Hop latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Total bytes ever sent from `from`.
    pub fn bytes_from(&self, from: ChipletId) -> u64 {
        self.ports[from.index()].total_bytes()
    }

    /// Total bytes across all ports.
    pub fn total_bytes(&self) -> u64 {
        self.ports.iter().map(Link::total_bytes).sum()
    }

    /// Total messages across all ports.
    pub fn total_msgs(&self) -> u64 {
        self.ports.iter().map(Link::total_msgs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_costs_latency_local_is_free() {
        let mut m = Mesh::new(2, 32, 64);
        assert_eq!(m.send(0, ChipletId(0), ChipletId(1), 64), 33);
        assert_eq!(m.send(0, ChipletId(0), ChipletId(0), 64), 0);
    }

    #[test]
    fn ports_are_independent() {
        let mut m = Mesh::new(3, 10, 1);
        let a = m.send(0, ChipletId(0), ChipletId(1), 50);
        let b = m.send(0, ChipletId(1), ChipletId(2), 50);
        assert_eq!(a, b); // no cross-port contention
                          // Same port queues.
        let c = m.send(0, ChipletId(0), ChipletId(2), 50);
        assert!(c > a);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = Mesh::paper_default(4);
        m.send(0, ChipletId(0), ChipletId(1), 100);
        m.send(0, ChipletId(1), ChipletId(0), 100);
        assert_eq!(m.total_bytes(), 200);
        assert_eq!(m.bytes_from(ChipletId(0)), 100);
        assert_eq!(m.total_msgs(), 2);
    }
}
