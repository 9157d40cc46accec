//! Named (x, y) series — the unit of a paper figure line.

use serde::{Deserialize, Serialize};

/// One point of a [`Series`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// X coordinate (e.g. arrival rate in requests/s, batch size, coverage).
    pub x: f64,
    /// Y coordinate (e.g. latency in seconds, attainment fraction).
    pub y: f64,
}

/// A named sequence of (x, y) points, corresponding to one line in a paper
/// figure (e.g. "vLiteRAG" in Fig. 11's Wiki-All/Llama3-8B panel).
///
/// # Examples
///
/// ```
/// let mut s = vlite_metrics::Series::new("CPU Only");
/// s.push(20.0, 0.95);
/// s.push(30.0, 0.40);
/// assert_eq!(s.len(), 2);
/// assert!(s.to_csv().starts_with("x,CPU Only"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    name: String,
    points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Display name of the series.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(SeriesPoint { x, y });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Immutable view of the points.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Renders the series as two-column CSV (`x,<name>`).
    pub fn to_csv(&self) -> String {
        let mut out = format!("x,{}\n", self.name);
        for p in &self.points {
            out.push_str(&format!("{},{}\n", p.x, p.y));
        }
        out
    }

    /// Merges several series sharing the same x grid into multi-column CSV.
    ///
    /// Points are matched by position, not by x value; series of different
    /// lengths are truncated to the shortest.
    pub fn merge_csv(series: &[Series]) -> String {
        if series.is_empty() {
            return String::new();
        }
        let mut out = String::from("x");
        for s in series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        let rows = series.iter().map(Series::len).min().unwrap_or(0);
        for i in 0..rows {
            out.push_str(&format!("{}", series[0].points[i].x));
            for s in series {
                out.push_str(&format!(",{}", s.points[i].y));
            }
            out.push('\n');
        }
        out
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        for (x, y) in iter {
            self.push(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(name: &str) -> Series {
        let mut s = Series::new(name);
        s.extend([(1.0, 0.99), (2.0, 0.95), (3.0, 0.80), (4.0, 0.99)]);
        s
    }

    #[test]
    fn csv_round_trip_shape() {
        let s = ramp("sys");
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.lines().next().unwrap().contains("sys"));
    }

    #[test]
    fn merge_csv_truncates_to_shortest() {
        let a = ramp("a");
        let mut b = Series::new("b");
        b.extend([(1.0, 0.5), (2.0, 0.6)]);
        let csv = Series::merge_csv(&[a, b]);
        assert_eq!(csv.lines().count(), 3); // header + 2 rows
    }
}
