//! Link and target geometry.
//!
//! The simulated deployment is two-dimensional (top view): the transmitter
//! sits at the origin, the receiver's antenna array sits `L` metres away on
//! the x-axis, and the target — a liquid-filled cylindrical beaker — stands
//! on the LoS path between them (paper Fig. 4 and §IV).
//!
//! The quantity that ultimately drives the WiMi feature is the chord length
//! `D_i` each antenna's LoS ray cuts through the liquid: because antennas
//! are spaced a few centimetres apart, the rays hit the cylinder at
//! different offsets and `D_1 ≠ D_2`, producing the differential phase
//! `ΔΘ = (D_1 − D_2)(β_tar − β_free)` of Eq. (18).

use crate::units::Meters;

/// A point in the 2-D deployment plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Along the link axis.
    pub x: f64,
    /// Across the link axis.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance_to(self, other: Point) -> Meters {
        Meters((self.x - other.x).hypot(self.y - other.y))
    }
}

/// A directed straight segment between two points (a signal ray).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin (transmit antenna).
    pub from: Point,
    /// Ray end (receive antenna).
    pub to: Point,
}

impl Ray {
    /// Creates a ray between two distinct points.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide.
    pub fn new(from: Point, to: Point) -> Self {
        assert!(
            from.distance_to(to).value() > 0.0,
            "ray endpoints must be distinct"
        );
        Ray { from, to }
    }

    /// Segment length.
    #[inline]
    pub fn length(self) -> Meters {
        self.from.distance_to(self.to)
    }

    /// Perpendicular distance from `p` to the infinite line through the ray.
    fn distance_to_point(self, p: Point) -> Meters {
        let dx = self.to.x - self.from.x;
        let dy = self.to.y - self.from.y;
        let len = dx.hypot(dy);
        let cross = dx * (p.y - self.from.y) - dy * (p.x - self.from.x);
        Meters(cross.abs() / len)
    }
}

/// An infinite circular cylinder seen from above: a circle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cylinder {
    /// Centre of the circular cross-section.
    pub center: Point,
    /// Radius, metres.
    pub radius: Meters,
}

impl Cylinder {
    /// Creates a cylinder cross-section.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not positive.
    pub fn new(center: Point, radius: Meters) -> Self {
        assert!(radius.value() > 0.0, "cylinder radius must be positive");
        Cylinder { center, radius }
    }

    /// Length of the chord the ray cuts through this circle, or zero if the
    /// ray misses it.
    ///
    /// `chord = 2·√(r² − d²)` where `d` is the ray–centre distance.
    pub fn chord_length(self, ray: Ray) -> Meters {
        let d = ray.distance_to_point(self.center).value();
        let r = self.radius.value();
        if d >= r {
            Meters(0.0)
        } else {
            Meters(2.0 * (r * r - d * d).sqrt())
        }
    }

    /// A concentric circle shrunk by `wall` (the liquid boundary inside a
    /// beaker of wall thickness `wall`).
    ///
    /// # Panics
    ///
    /// Panics if `wall` is negative or at least the radius.
    fn shrunk_by(self, wall: Meters) -> Cylinder {
        assert!(wall.value() >= 0.0, "wall thickness must be non-negative");
        assert!(
            wall.value() < self.radius.value(),
            "wall thickness must be smaller than radius"
        );
        Cylinder {
            center: self.center,
            radius: self.radius - wall,
        }
    }
}

/// Path lengths a ray spends inside each region of a walled beaker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BeakerTraversal {
    /// Total path inside the container wall material (both crossings).
    pub wall_path: Meters,
    /// Path inside the liquid.
    pub liquid_path: Meters,
}

/// Computes how much of `ray` lies in the wall vs. the liquid of a beaker
/// with outer circle `outer` and wall thickness `wall`.
pub fn traverse_beaker(ray: Ray, outer: Cylinder, wall: Meters) -> BeakerTraversal {
    let inner = outer.shrunk_by(wall);
    let outer_chord = outer.chord_length(ray);
    let inner_chord = inner.chord_length(ray);
    BeakerTraversal {
        wall_path: Meters((outer_chord.value() - inner_chord.value()).max(0.0)),
        liquid_path: inner_chord,
    }
}

/// A uniform linear receive-antenna array.
///
/// # Examples
///
/// ```
/// use wimi_phy::geometry::{AntennaArray, Point};
/// use wimi_phy::units::Meters;
///
/// let arr = AntennaArray::uniform_linear(Point::new(2.0, 0.0), Meters::from_cm(2.9), 3);
/// assert_eq!(arr.len(), 3);
/// assert!((arr.position(0).y + 0.029).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AntennaArray {
    positions: Vec<Point>,
}

impl AntennaArray {
    /// Builds an `n`-element array centred at `center`, spaced `spacing`
    /// apart along the y-axis (perpendicular to the link).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the spacing is not positive.
    pub fn uniform_linear(center: Point, spacing: Meters, n: usize) -> Self {
        assert!(n > 0, "array must have at least one antenna");
        assert!(spacing.value() > 0.0, "antenna spacing must be positive");
        let mid = (n as f64 - 1.0) / 2.0;
        let positions = (0..n)
            .map(|i| Point::new(center.x, center.y + (i as f64 - mid) * spacing.value()))
            .collect();
        AntennaArray { positions }
    }

    /// Number of antennas.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the array has no antennas (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of antenna `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// Iterates over antenna positions.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.positions.iter()
    }

    /// The antenna positions, in array order.
    pub(crate) fn positions(&self) -> &[Point] {
        &self.positions
    }
}

/// Severity of sub-wavelength diffraction for a target of diameter `d`.
///
/// Ray optics is valid while the target is large compared to the
/// wavelength. When the beaker diameter drops below `λ` the wave diffracts
/// around it and the through-target phase/amplitude relation degrades —
/// the paper observes this as an accuracy collapse for the 3.2 cm beaker
/// (Fig. 19). Returns `0` for `d ≥ λ`, rising linearly to `1` as `d → 0`.
pub fn diffraction_severity(diameter: Meters, wavelength: Meters) -> f64 {
    assert!(wavelength.value() > 0.0, "wavelength must be positive");
    assert!(diameter.value() >= 0.0, "diameter must be non-negative");
    let ratio = diameter.value() / wavelength.value();
    (1.0 - ratio).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let d = Point::new(0.0, 0.0).distance_to(Point::new(3.0, 4.0));
        assert!((d.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ray_distance_to_point() {
        let ray = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let d = ray.distance_to_point(Point::new(1.0, 0.5));
        assert!((d.value() - 0.5).abs() < 1e-12);
        // Point on the line.
        assert!(ray.distance_to_point(Point::new(0.7, 0.0)).value() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_ray_rejected() {
        let p = Point::new(1.0, 1.0);
        let _ = Ray::new(p, p);
    }

    #[test]
    fn central_chord_is_diameter() {
        let cyl = Cylinder::new(Point::new(1.0, 0.0), Meters::from_cm(7.15));
        let ray = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let chord = cyl.chord_length(ray);
        assert!((chord.value() - 0.143).abs() < 1e-12);
    }

    #[test]
    fn offset_chord_is_shorter() {
        let cyl = Cylinder::new(Point::new(1.0, 0.0), Meters::from_cm(7.15));
        let central = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let offset = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.058));
        let d_central = cyl.chord_length(central);
        let d_offset = cyl.chord_length(offset);
        assert!(d_offset.value() > 0.0);
        assert!(d_offset < d_central);
        // This difference is exactly the D1 − D2 the feature needs.
        assert!((d_central - d_offset).value() > 1e-4);
    }

    #[test]
    fn missing_ray_has_zero_chord() {
        let cyl = Cylinder::new(Point::new(1.0, 1.0), Meters::from_cm(5.0));
        let ray = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        assert_eq!(cyl.chord_length(ray).value(), 0.0);
    }

    #[test]
    fn beaker_traversal_splits_wall_and_liquid() {
        let outer = Cylinder::new(Point::new(1.0, 0.0), Meters::from_cm(7.15));
        let ray = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let t = traverse_beaker(ray, outer, Meters::from_mm(3.0));
        // Central ray: wall crossed twice → 6 mm, liquid = 14.3 − 0.6 cm.
        assert!((t.wall_path.value() - 0.006).abs() < 1e-9);
        assert!((t.liquid_path.value() - 0.137).abs() < 1e-9);
    }

    #[test]
    fn traversal_conserves_total_chord() {
        let outer = Cylinder::new(Point::new(1.0, 0.01), Meters::from_cm(5.0));
        let ray = Ray::new(Point::new(0.0, 0.0), Point::new(2.0, 0.03));
        let t = traverse_beaker(ray, outer, Meters::from_mm(2.5));
        let total = outer.chord_length(ray);
        assert!(((t.wall_path + t.liquid_path) - total).abs().value() < 1e-12);
    }

    #[test]
    fn array_is_centred_and_ordered() {
        let arr = AntennaArray::uniform_linear(Point::new(2.0, 0.0), Meters::from_cm(2.0), 3);
        assert_eq!(arr.len(), 3);
        assert!((arr.position(0).y + 0.02).abs() < 1e-12);
        assert!(arr.position(1).y.abs() < 1e-12);
        assert!((arr.position(2).y - 0.02).abs() < 1e-12);
        let ys: Vec<f64> = arr.iter().map(|p| p.y).collect();
        assert_eq!(ys.len(), 3);
    }

    #[test]
    fn two_element_array_straddles_center() {
        let arr = AntennaArray::uniform_linear(Point::new(0.0, 0.0), Meters::from_cm(2.0), 2);
        assert!((arr.position(0).y + 0.01).abs() < 1e-12);
        assert!((arr.position(1).y - 0.01).abs() < 1e-12);
    }

    #[test]
    fn diffraction_severity_thresholds() {
        let lambda = Meters::from_cm(6.0);
        assert_eq!(diffraction_severity(Meters::from_cm(14.3), lambda), 0.0);
        assert_eq!(diffraction_severity(Meters::from_cm(6.0), lambda), 0.0);
        let s = diffraction_severity(Meters::from_cm(3.2), lambda);
        assert!(s > 0.4 && s < 0.5, "severity = {s}");
        assert_eq!(diffraction_severity(Meters(0.0), lambda), 1.0);
    }

    #[test]
    #[should_panic(expected = "wall thickness")]
    fn shrink_rejects_wall_thicker_than_radius() {
        let cyl = Cylinder::new(Point::new(0.0, 0.0), Meters::from_cm(1.0));
        let _ = cyl.shrunk_by(Meters::from_cm(2.0));
    }
}
