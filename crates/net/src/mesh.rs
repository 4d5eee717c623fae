//! 2D-mesh topology and XY (dimension-ordered) routing.

/// A node's position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (x).
    pub x: usize,
    /// Row (y).
    pub y: usize,
}

/// A `cols` × `rows` 2D mesh.
///
/// Nodes are numbered row-major: node `i` sits at
/// `(i % cols, i / cols)`.
///
/// # Examples
///
/// ```
/// use pimdsm_net::Mesh;
///
/// let m = Mesh::new(4, 2);
/// assert_eq!(m.num_nodes(), 8);
/// assert_eq!(m.hops(0, 7), 4); // 3 east + 1 south
/// assert_eq!(m.hops(3, 3), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    cols: usize,
    rows: usize,
}

impl Mesh {
    /// Creates a mesh with `cols` columns and `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        Mesh { cols, rows }
    }

    /// Picks a near-square mesh for `n` nodes (cols ≥ rows,
    /// cols × rows ≥ n).
    pub fn for_nodes(n: usize) -> Self {
        assert!(n > 0, "mesh needs at least one node");
        let rows = (n as f64).sqrt().floor() as usize;
        let rows = rows.max(1);
        let cols = n.div_ceil(rows);
        Mesh::new(cols, rows)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total router positions (may exceed the number of populated nodes).
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Coordinates of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the mesh.
    pub fn coord(&self, id: usize) -> Coord {
        assert!(id < self.num_nodes(), "node {id} outside mesh");
        Coord {
            x: id % self.cols,
            y: id / self.cols,
        }
    }

    /// Node id at a coordinate.
    pub fn node_at(&self, c: Coord) -> usize {
        debug_assert!(c.x < self.cols && c.y < self.rows);
        c.y * self.cols + c.x
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, from: usize, to: usize) -> usize {
        let a = self.coord(from);
        let b = self.coord(to);
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// Average hop count from `from` to every other node (used to sanity
    /// check calibration).
    pub fn mean_hops_from(&self, from: usize) -> f64 {
        let n = self.num_nodes();
        if n <= 1 {
            return 0.0;
        }
        let total: usize = (0..n)
            .filter(|&t| t != from)
            .map(|t| self.hops(from, t))
            .sum();
        total as f64 / (n - 1) as f64
    }

    /// The XY route from `from` to `to`: the directed links it crosses,
    /// X hops first, then Y hops, as two runs of ids a fixed step apart.
    /// The link leaving node `n` east, west, north or south has id `4n`,
    /// `4n + 1`, `4n + 2` or `4n + 3`.
    #[inline]
    pub(crate) fn route(&self, from: usize, to: usize) -> impl Iterator<Item = usize> {
        let (a, b) = (self.coord(from), self.coord(to));
        let turn = self.node_at(Coord { x: b.x, y: a.y });
        let row = 4 * self.cols as isize;
        let x = if b.x >= a.x {
            (4 * from, 4)
        } else {
            (4 * from + 1, -4)
        };
        let y = if b.y >= a.y {
            (4 * turn + 3, row)
        } else {
            (4 * turn + 2, -row)
        };
        let leg = |(first, step): (usize, isize), hops: usize| {
            (0..hops as isize).map(move |k| first.wrapping_add_signed(k * step))
        };
        leg(x, a.x.abs_diff(b.x)).chain(leg(y, a.y.abs_diff(b.y)))
    }

    /// Total number of directed link slots (including nonexistent edge
    /// links, which simply go unused).
    pub fn num_link_slots(&self) -> usize {
        self.num_nodes() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_numbering() {
        let m = Mesh::new(3, 2);
        assert_eq!(m.coord(0), Coord { x: 0, y: 0 });
        assert_eq!(m.coord(2), Coord { x: 2, y: 0 });
        assert_eq!(m.coord(3), Coord { x: 0, y: 1 });
        assert_eq!(m.node_at(Coord { x: 2, y: 1 }), 5);
    }

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.hops(0, 63), 14);
        assert_eq!(m.hops(9, 9), 0);
        assert_eq!(m.hops(0, 7), 7);
        assert_eq!(m.hops(0, 56), 7);
    }

    #[test]
    fn for_nodes_covers_requested_count() {
        for n in 1..100 {
            let m = Mesh::for_nodes(n);
            assert!(m.num_nodes() >= n, "n={n} mesh={m:?}");
        }
        let m = Mesh::for_nodes(64);
        assert_eq!((m.cols(), m.rows()), (8, 8));
        let m = Mesh::for_nodes(48);
        assert_eq!(m.num_nodes(), 48);
    }

    #[test]
    fn route_goes_x_then_y() {
        let m = Mesh::new(4, 4);
        // (0,0) -> (2,2): east from nodes 0 and 1, then south from 2 and 6.
        let route: Vec<usize> = m.route(0, 10).collect();
        assert_eq!(route, [0, 4, 4 * 2 + 3, 4 * 6 + 3]);
    }

    #[test]
    fn route_handles_west_and_north() {
        let m = Mesh::new(4, 4);
        // (3,3) -> (0,0): west from 15, 14, 13, then north from 12, 8, 4.
        let route: Vec<usize> = m.route(15, 0).collect();
        assert_eq!(route, [61, 57, 53, 50, 34, 18]);
    }

    #[test]
    fn self_route_is_empty() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.route(5, 5).next(), None);
    }

    #[test]
    fn mean_hops_reasonable() {
        let m = Mesh::new(8, 8);
        let mh = m.mean_hops_from(0);
        assert!(mh > 6.5 && mh < 7.5, "corner mean hops {mh}");
    }
}
