//! Dense `f64` vector with the handful of operations the controllers need.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense column vector of `f64`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Take ownership of a `Vec<f64>`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// Copy from a slice.
    pub fn from_slice(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }

    /// Length of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn dot(&self, rhs: &Vector) -> f64 {
        assert_eq!(self.len(), rhs.len(), "dot: length mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Sum of entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Scale in place.
    pub(crate) fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f64) -> Vector {
        let mut v = self.clone();
        v.scale_mut(s);
        v
    }

    /// `self += s * rhs` (AXPY).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn axpy(&mut self, s: f64, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Clamp every component into `[lo[i], hi[i]]`.
    ///
    /// # Panics
    /// Panics if bound lengths differ from the vector length.
    pub(crate) fn clamp_box(&mut self, lo: &[f64], hi: &[f64]) {
        assert_eq!(self.len(), lo.len(), "clamp_box: lo length mismatch");
        assert_eq!(self.len(), hi.len(), "clamp_box: hi length mismatch");
        for ((v, &l), &h) in self.data.iter_mut().zip(lo).zip(hi) {
            *v = v.clamp(l, h);
        }
    }

    /// Subvector copy `[start, start+len)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub(crate) fn segment(&self, start: usize, len: usize) -> Vector {
        Vector::from_slice(&self.data[start..start + len])
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector add: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sub: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_norm_sum() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 12.0);
        assert_eq!(Vector::from_slice(&[3.0, 4.0]).norm(), 5.0);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(b.max_abs(), 6.0);
    }

    #[test]
    fn axpy_and_ops() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
        let c = &a - &b;
        assert_eq!(c.as_slice(), &[3.0, 4.0]);
        let d = &c * 0.5;
        assert_eq!(d.as_slice(), &[1.5, 2.0]);
        let e = -&d;
        assert_eq!(e.as_slice(), &[-1.5, -2.0]);
    }

    #[test]
    fn clamp_box_clamps() {
        let mut v = Vector::from_slice(&[-1.0, 0.5, 9.0]);
        v.clamp_box(&[0.0, 0.0, 0.0], &[1.0, 1.0, 2.0]);
        assert_eq!(v.as_slice(), &[0.0, 0.5, 2.0]);
    }

    #[test]
    fn segment_copies() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.segment(1, 2).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
