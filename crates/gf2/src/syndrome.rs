//! Byte-sliced evaluation of a small GF(2) linear map.
//!
//! A family of XOR functions (one `u64` row mask each) is the linear map
//! `x ↦ (parity(x & rowᵢ))ᵢ`. Because the map is linear, its value on
//! `x` is the XOR of its values on `x`'s eight bytes, so eight 256-entry
//! tables — one per byte position, built once from the rows — evaluate
//! it with eight loads and seven XORs instead of one popcount per row.

use std::fmt;

/// The syndrome of up to 32 XOR functions, byte-sliced.
///
/// Bit `i` of [`Syndrome::eval`] is `parity(x & rows[i])`; a zero
/// syndrome means `x` lies in the common kernel of every row.
///
/// # Examples
///
/// ```
/// use phantom_gf2::Syndrome;
/// let s = Syndrome::new(&[0b011, 1 << 50 | 1]);
/// assert_eq!(s.eval(0b001), 0b11);
/// assert_eq!(s.eval(0b010), 0b01);
/// assert_eq!(s.eval(1 << 50), 0b10);
/// assert_eq!(s.eval(0b011 | 1 << 50), 0);
/// ```
pub struct Syndrome {
    /// `tables[j][b]` is the syndrome of byte value `b` at byte `j`.
    tables: Box<[[u32; 256]; 8]>,
}

impl Syndrome {
    /// Build the tables for `rows` (row `i` becomes syndrome bit `i`).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 32 rows.
    pub fn new(rows: &[u64]) -> Syndrome {
        assert!(rows.len() <= 32, "at most 32 rows supported");
        // Syndrome of a single address bit: which rows select it.
        let column = |bit: u32| {
            rows.iter()
                .enumerate()
                .fold(0u32, |acc, (i, &row)| acc | ((row >> bit & 1) as u32) << i)
        };
        let mut tables = Box::new([[0u32; 256]; 8]);
        for (j, table) in tables.iter_mut().enumerate() {
            for b in 1..256usize {
                // A byte's syndrome is the XOR of its bits' syndromes:
                // peel the lowest set bit off an already-filled entry.
                let low = b & b.wrapping_neg();
                table[b] = if b == low {
                    column(8 * j as u32 + low.trailing_zeros())
                } else {
                    table[b ^ low] ^ table[low]
                };
            }
        }
        Syndrome { tables }
    }

    /// The syndrome of `x`: bit `i` is the parity of `x & rows[i]`.
    #[inline]
    pub fn eval(&self, x: u64) -> u32 {
        x.to_le_bytes()
            .iter()
            .zip(self.tables.iter())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize])
    }
}

impl fmt::Debug for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Syndrome").finish_non_exhaustive()
    }
}
