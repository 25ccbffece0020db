//! Global simulation bounding box with optional periodicity.

use serde::{Deserialize, Serialize};

/// Axis-aligned simulation volume. Subsonic-turbulence runs use a periodic
/// unit box; Evrard collapse uses an open box around the gas sphere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Box3 {
    pub xmin: f64,
    pub xmax: f64,
    pub ymin: f64,
    pub ymax: f64,
    pub zmin: f64,
    pub zmax: f64,
    pub periodic: bool,
}

impl Box3 {
    /// A cube `[lo, hi]^3`.
    pub fn cube(lo: f64, hi: f64, periodic: bool) -> Self {
        assert!(hi > lo, "degenerate box");
        Box3 {
            xmin: lo,
            xmax: hi,
            ymin: lo,
            ymax: hi,
            zmin: lo,
            zmax: hi,
            periodic,
        }
    }

    /// The periodic unit box used by the turbulence workload.
    pub fn unit_periodic() -> Self {
        Box3::cube(0.0, 1.0, true)
    }

    pub fn lx(&self) -> f64 {
        self.xmax - self.xmin
    }

    pub fn ly(&self) -> f64 {
        self.ymax - self.ymin
    }

    pub fn lz(&self) -> f64 {
        self.zmax - self.zmin
    }

    /// True if `(x, y, z)` lies inside (closed) bounds.
    pub fn contains(&self, x: f64, y: f64, z: f64) -> bool {
        x >= self.xmin
            && x <= self.xmax
            && y >= self.ymin
            && y <= self.ymax
            && z >= self.zmin
            && z <= self.zmax
    }

    /// Normalize a position into `[0, 1)^3` box coordinates (clamped for
    /// non-periodic boxes, wrapped for periodic ones).
    pub fn normalize(&self, x: f64, y: f64, z: f64) -> (f64, f64, f64) {
        let nx = (x - self.xmin) / self.lx();
        let ny = (y - self.ymin) / self.ly();
        let nz = (z - self.zmin) / self.lz();
        if self.periodic {
            (nx.rem_euclid(1.0), ny.rem_euclid(1.0), nz.rem_euclid(1.0))
        } else {
            (
                nx.clamp(0.0, 1.0 - f64::EPSILON),
                ny.clamp(0.0, 1.0 - f64::EPSILON),
                nz.clamp(0.0, 1.0 - f64::EPSILON),
            )
        }
    }

    /// Wrap a position back into the box (periodic) or leave it (open).
    pub fn wrap(&self, x: f64, y: f64, z: f64) -> (f64, f64, f64) {
        if !self.periodic {
            return (x, y, z);
        }
        (
            self.xmin + (x - self.xmin).rem_euclid(self.lx()),
            self.ymin + (y - self.ymin).rem_euclid(self.ly()),
            self.zmin + (z - self.zmin).rem_euclid(self.lz()),
        )
    }

    /// Minimum-image displacement `a - b` honoring periodicity.
    pub fn delta(&self, ax: f64, ay: f64, az: f64, bx: f64, by: f64, bz: f64) -> (f64, f64, f64) {
        let mut dx = ax - bx;
        let mut dy = ay - by;
        let mut dz = az - bz;
        if self.periodic {
            let (lx, ly, lz) = (self.lx(), self.ly(), self.lz());
            if dx > 0.5 * lx {
                dx -= lx;
            } else if dx < -0.5 * lx {
                dx += lx;
            }
            if dy > 0.5 * ly {
                dy -= ly;
            } else if dy < -0.5 * ly {
                dy += ly;
            }
            if dz > 0.5 * lz {
                dz -= lz;
            } else if dz < -0.5 * lz {
                dz += lz;
            }
        }
        (dx, dy, dz)
    }

    /// Squared minimum-image distance.
    pub fn dist2(&self, ax: f64, ay: f64, az: f64, bx: f64, by: f64, bz: f64) -> f64 {
        let (dx, dy, dz) = self.delta(ax, ay, az, bx, by, bz);
        dx * dx + dy * dy + dz * dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_box_basics() {
        let b = Box3::unit_periodic();
        assert_eq!(b.lx(), 1.0);
        assert!(b.contains(0.5, 0.5, 0.5));
        assert!(!b.contains(1.5, 0.5, 0.5));
    }

    #[test]
    fn periodic_wrap_and_normalize() {
        let b = Box3::unit_periodic();
        let (x, y, z) = b.wrap(1.25, -0.25, 3.5);
        assert!((x - 0.25).abs() < 1e-12);
        assert!((y - 0.75).abs() < 1e-12);
        assert!((z - 0.5).abs() < 1e-12);
        let (nx, ..) = b.normalize(1.25, 0.0, 0.0);
        assert!((nx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn open_box_clamps_normalization() {
        let b = Box3::cube(-1.0, 1.0, false);
        let (nx, ny, nz) = b.normalize(5.0, -5.0, 0.0);
        assert!(nx < 1.0 && nx > 0.99);
        assert_eq!(ny, 0.0);
        assert!((nz - 0.5).abs() < 1e-12);
    }

    #[test]
    fn minimum_image_distance() {
        let b = Box3::unit_periodic();
        // Points at 0.05 and 0.95 are 0.1 apart through the boundary.
        let d2 = b.dist2(0.05, 0.0, 0.0, 0.95, 0.0, 0.0);
        assert!((d2 - 0.01).abs() < 1e-12);
        let open = Box3::cube(0.0, 1.0, false);
        let d2o = open.dist2(0.05, 0.0, 0.0, 0.95, 0.0, 0.0);
        assert!((d2o - 0.81).abs() < 1e-12);
    }
}
