//! Chip topologies and hop distances.

use std::fmt;

/// Identifier of one core on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// The physical arrangement of cores, which determines hop distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A `width × height` 2-D mesh with XY routing.
    Mesh {
        /// Number of columns.
        width: usize,
        /// Number of rows.
        height: usize,
    },
    /// A unidirectionally-numbered bidirectional ring.
    Ring {
        /// Number of cores on the ring.
        size: usize,
    },
    /// An ideal crossbar: every pair of distinct cores is one hop apart.
    Crossbar {
        /// Number of cores.
        size: usize,
    },
}

impl Topology {
    /// A `width × height` mesh.
    pub fn mesh(width: usize, height: usize) -> Topology {
        Topology::Mesh { width, height }
    }

    /// A ring of `size` cores.
    pub fn ring(size: usize) -> Topology {
        Topology::Ring { size }
    }

    /// An ideal crossbar of `size` cores.
    pub fn crossbar(size: usize) -> Topology {
        Topology::Crossbar { size }
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        match *self {
            Topology::Mesh { width, height } => width * height,
            Topology::Ring { size } | Topology::Crossbar { size } => size,
        }
    }

    /// The (x, y) coordinates of a core in a mesh; cores are numbered row
    /// by row. For non-mesh topologies, y is always 0.
    pub fn coordinates(&self, core: CoreId) -> (usize, usize) {
        match *self {
            Topology::Mesh { width, .. } => (core.0 % width, core.0 / width),
            _ => (core.0, 0),
        }
    }

    /// Number of router hops between two cores (0 when they are equal).
    pub fn hops(&self, from: CoreId, to: CoreId) -> usize {
        if from == to {
            return 0;
        }
        match *self {
            Topology::Mesh { .. } => {
                let (ax, ay) = self.coordinates(from);
                let (bx, by) = self.coordinates(to);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            Topology::Ring { size } => {
                let d = from.0.abs_diff(to.0);
                d.min(size - d)
            }
            Topology::Crossbar { .. } => 1,
        }
    }

    /// Fills `row[c]` with [`Topology::hops`]`(from, CoreId(c))` for every
    /// `c < row.len()` (which must not exceed [`Topology::num_cores`]).
    /// The topology is matched once per row rather than once per pair, so
    /// a placement scoring every candidate core pays one tight loop.
    pub fn hops_from(&self, from: CoreId, row: &mut [u64]) {
        match *self {
            Topology::Mesh { width, .. } => {
                let (fx, fy) = self.coordinates(from);
                for (y, line) in row.chunks_mut(width.max(1)).enumerate() {
                    let dy = y.abs_diff(fy);
                    for (x, hops) in line.iter_mut().enumerate() {
                        *hops = (x.abs_diff(fx) + dy) as u64;
                    }
                }
            }
            Topology::Ring { size } => {
                for (c, hops) in row.iter_mut().enumerate() {
                    let d = c.abs_diff(from.0);
                    *hops = d.min(size - d) as u64;
                }
            }
            Topology::Crossbar { .. } => {
                row.fill(1);
                if let Some(own) = row.get_mut(from.0) {
                    *own = 0;
                }
            }
        }
    }

    /// Whether `core` is a valid identifier for this topology.
    pub fn contains(&self, core: CoreId) -> bool {
        core.0 < self.num_cores()
    }

    /// All core identifiers of the chip.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Mesh { width, height } => write!(f, "{width}x{height} mesh"),
            Topology::Ring { size } => write!(f, "{size}-core ring"),
            Topology::Crossbar { size } => write!(f, "{size}-core crossbar"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mesh_coordinates_and_hops() {
        let t = Topology::mesh(4, 4);
        assert_eq!(t.num_cores(), 16);
        assert_eq!(t.coordinates(CoreId(0)), (0, 0));
        assert_eq!(t.coordinates(CoreId(5)), (1, 1));
        assert_eq!(t.coordinates(CoreId(15)), (3, 3));
        assert_eq!(t.hops(CoreId(0), CoreId(0)), 0);
        assert_eq!(t.hops(CoreId(0), CoreId(3)), 3);
        assert_eq!(t.hops(CoreId(0), CoreId(15)), 6);
        assert_eq!(t.hops(CoreId(5), CoreId(6)), 1);
    }

    #[test]
    fn ring_hops_wrap_around() {
        let t = Topology::ring(8);
        assert_eq!(t.hops(CoreId(0), CoreId(1)), 1);
        assert_eq!(t.hops(CoreId(0), CoreId(7)), 1);
        assert_eq!(t.hops(CoreId(0), CoreId(4)), 4);
        assert_eq!(t.hops(CoreId(2), CoreId(6)), 4);
    }

    #[test]
    fn crossbar_is_single_hop() {
        let t = Topology::crossbar(64);
        assert_eq!(t.hops(CoreId(3), CoreId(60)), 1);
        assert_eq!(t.hops(CoreId(3), CoreId(3)), 0);
    }

    #[test]
    fn membership_and_enumeration() {
        let t = Topology::mesh(3, 2);
        assert!(t.contains(CoreId(5)));
        assert!(!t.contains(CoreId(6)));
        assert_eq!(t.cores().count(), 6);
        assert_eq!(t.to_string(), "3x2 mesh");
    }

    proptest! {
        #[test]
        fn hops_are_a_metric(w in 1usize..8, h in 1usize..8, a in 0usize..64, b in 0usize..64, c in 0usize..64) {
            let t = Topology::mesh(w, h);
            let n = t.num_cores();
            let (a, b, c) = (CoreId(a % n), CoreId(b % n), CoreId(c % n));
            // Symmetry, identity, triangle inequality.
            prop_assert_eq!(t.hops(a, b), t.hops(b, a));
            prop_assert_eq!(t.hops(a, a), 0);
            prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        }

        #[test]
        fn hops_from_fills_the_hops_row(kind in 0usize..3, w in 1usize..9, h in 1usize..9) {
            let t = [Topology::mesh(w, h), Topology::ring(w * h), Topology::crossbar(w * h)][kind];
            let n = t.num_cores();
            let mut row = vec![u64::MAX; n];
            for from in t.cores() {
                t.hops_from(from, &mut row);
                for to in t.cores() {
                    prop_assert_eq!(row[to.0], t.hops(from, to) as u64);
                }
                // A row shorter than the chip covers a prefix of it.
                let mut prefix = vec![u64::MAX; n / 2];
                t.hops_from(from, &mut prefix);
                prop_assert_eq!(&prefix[..], &row[..n / 2]);
            }
        }
    }
}
