//! Constrained-random stimulus generation.
//!
//! The simulation-based side of the paper's methodology: transactions are
//! generated under constraints (ranges, interesting corner values, excluded
//! values) and replayed on both the SLM and the wrapped-RTL.

use dfv_bits::{limbs::limbs_for, Bv, SplitMix64};

use crate::wrapped::Transaction;

/// How to draw one transaction field.
#[derive(Debug, Clone)]
pub enum FieldSpec {
    /// Uniform over the field's full width.
    Uniform {
        /// Width in bits.
        width: u32,
    },
    /// Uniform within `[lo, hi]` (inclusive, unsigned interpretation).
    Range {
        /// Width in bits.
        width: u32,
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
    /// Mostly uniform, but with the given probability (percent) pick one of
    /// the corner values (0, max, min-signed, max-signed, 1). Biasing
    /// toward corners is what makes random simulation find overflow bugs.
    Corners {
        /// Width in bits.
        width: u32,
        /// Percent chance (0..=100) of picking a corner value.
        corner_percent: u32,
    },
    /// Uniform but never one of the excluded values — the simulation
    /// analogue of the paper's "constrain the input space" (§3.1.2).
    Excluding {
        /// Width in bits.
        width: u32,
        /// Forbidden values.
        exclude: Vec<u64>,
    },
}

impl FieldSpec {
    fn width(&self) -> u32 {
        match self {
            FieldSpec::Uniform { width }
            | FieldSpec::Range { width, .. }
            | FieldSpec::Corners { width, .. }
            | FieldSpec::Excluding { width, .. } => *width,
        }
    }
}

/// A seeded constrained-random transaction generator.
///
/// # Example
///
/// ```
/// use dfv_cosim::{FieldSpec, StimulusGen};
///
/// let mut gen = StimulusGen::new(42)
///     .field("a", FieldSpec::Corners { width: 8, corner_percent: 30 })
///     .field("b", FieldSpec::Range { width: 8, lo: 1, hi: 10 });
/// let txn = gen.next_transaction();
/// assert!(txn["b"].to_u64() >= 1 && txn["b"].to_u64() <= 10);
/// ```
#[derive(Debug)]
pub struct StimulusGen {
    rng: SplitMix64,
    fields: Vec<(String, FieldSpec)>,
}

impl StimulusGen {
    /// Creates a generator with a fixed seed (reproducible).
    pub fn new(seed: u64) -> Self {
        StimulusGen {
            rng: SplitMix64::new(seed),
            fields: Vec::new(),
        }
    }

    /// Adds a field.
    pub fn field(mut self, name: &str, spec: FieldSpec) -> Self {
        self.fields.push((name.into(), spec));
        self
    }

    /// Draws one value for a spec.
    pub fn draw(&mut self, spec: &FieldSpec) -> Bv {
        draw_bv(&mut self.rng, spec)
    }

    /// Draws one value for a spec into `dst` (`limbs_for(width)` limbs,
    /// little-endian): the allocation-free form of
    /// [`StimulusGen::draw`], consuming the same random numbers and
    /// writing the same limbs.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `limbs_for(width)` limbs long.
    pub fn draw_into(&mut self, spec: &FieldSpec, dst: &mut [u64]) {
        draw_limbs(&mut self.rng, spec, dst);
    }

    /// Generates the next transaction: one draw per field, in field order.
    pub fn next_transaction(&mut self) -> Transaction {
        let StimulusGen { rng, fields } = self;
        fields
            .iter()
            .map(|(name, spec)| (name.clone(), draw_bv(rng, spec)))
            .collect()
    }
}

/// [`StimulusGen::draw`] over a borrowed generator state.
fn draw_bv(rng: &mut SplitMix64, spec: &FieldSpec) -> Bv {
    let width = spec.width();
    let (mut one, mut many) = ([0u64], Vec::new());
    let limbs: &mut [u64] = if width <= 64 {
        &mut one
    } else {
        many.resize(limbs_for(width), 0);
        &mut many
    };
    draw_limbs(rng, spec, limbs);
    Bv::from_limbs(width, limbs)
}

/// [`StimulusGen::draw_into`] over a borrowed generator state.
fn draw_limbs(rng: &mut SplitMix64, spec: &FieldSpec, dst: &mut [u64]) {
    let width = spec.width();
    assert_eq!(dst.len(), limbs_for(width), "draw_into: dst/width mismatch");
    if let FieldSpec::Uniform { .. } = spec {
        // Uniform fields are random across their *entire* width, 64 bits
        // at a time LSB-first — wide fields (packed arrays, image rows)
        // get full-entropy stimulus.
        for (k, d) in dst.iter_mut().enumerate() {
            *d = rng.bits((width - 64 * k as u32).min(64));
        }
        return;
    }
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let raw = match spec {
        FieldSpec::Uniform { .. } => unreachable!("handled above"),
        FieldSpec::Range { lo, hi, .. } => rng.range_u64(*lo, *hi),
        FieldSpec::Corners { corner_percent, .. } => {
            if rng.below(100) < u64::from(*corner_percent) {
                let corners = [
                    0u64,
                    mask,
                    1,
                    mask >> 1,       // max signed
                    (mask >> 1) + 1, // min signed
                ];
                corners[rng.below(corners.len() as u64) as usize]
            } else {
                rng.bits(width.min(64))
            }
        }
        FieldSpec::Excluding { exclude, .. } => loop {
            let v = rng.bits(width.min(64));
            if !exclude.contains(&v) {
                break v;
            }
        },
    };
    // Non-uniform specs above 64 bits zero-extend; the interesting action
    // is in the low bits for ranges/corners/exclusions.
    dst.fill(0);
    dst[0] = raw & mask;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_with_same_seed() {
        let mk = || {
            StimulusGen::new(7)
                .field("x", FieldSpec::Uniform { width: 16 })
                .field(
                    "y",
                    FieldSpec::Corners {
                        width: 8,
                        corner_percent: 50,
                    },
                )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..20 {
            assert_eq!(a.next_transaction(), b.next_transaction());
        }
    }

    #[test]
    fn draw_into_writes_the_limbs_draw_returns() {
        let specs = [
            FieldSpec::Uniform { width: 1 },
            FieldSpec::Uniform { width: 64 },
            FieldSpec::Uniform { width: 100 },
            FieldSpec::Uniform { width: 200 },
            FieldSpec::Range {
                width: 70,
                lo: 5,
                hi: u64::MAX,
            },
            FieldSpec::Range {
                width: 6,
                lo: 0,
                hi: 1000,
            },
            FieldSpec::Corners {
                width: 130,
                corner_percent: 50,
            },
            FieldSpec::Excluding {
                width: 3,
                exclude: vec![0, 7],
            },
        ];
        let (mut a, mut b) = (StimulusGen::new(5), StimulusGen::new(5));
        for _ in 0..50 {
            for spec in &specs {
                let v = a.draw(spec);
                let mut limbs = vec![!0u64; limbs_for(spec.width())];
                b.draw_into(spec, &mut limbs);
                assert_eq!(limbs, v.limbs(), "{spec:?}");
            }
        }
        // A wide uniform value is 64-bit draws, least significant first;
        // a wide non-uniform one is zero-extended.
        let mut rng = SplitMix64::new(9);
        let want: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let got = StimulusGen::new(9).draw(&FieldSpec::Uniform { width: 200 });
        assert_eq!(got.limbs(), [want[0], want[1], want[2], want[3] & 0xFF]);
        let corner = StimulusGen::new(9).draw(&FieldSpec::Corners {
            width: 130,
            corner_percent: 0,
        });
        assert_eq!(corner.limbs()[1..], [0, 0]);
    }

    #[test]
    fn range_respected() {
        let mut g = StimulusGen::new(1).field(
            "v",
            FieldSpec::Range {
                width: 12,
                lo: 100,
                hi: 200,
            },
        );
        for _ in 0..100 {
            let v = g.next_transaction()["v"].to_u64();
            assert!((100..=200).contains(&v));
        }
    }

    #[test]
    fn exclusion_respected() {
        let mut g = StimulusGen::new(2).field(
            "v",
            FieldSpec::Excluding {
                width: 4,
                exclude: vec![0xF, 0x0],
            },
        );
        for _ in 0..200 {
            let v = g.next_transaction()["v"].to_u64();
            assert!(v != 0xF && v != 0);
        }
    }

    #[test]
    fn wide_uniform_fields_have_entropy_everywhere() {
        let mut g = StimulusGen::new(9).field("img", FieldSpec::Uniform { width: 200 });
        let first = g.next_transaction()["img"].clone();
        assert_eq!(first.width(), 200);
        let mut high_bits_seen = false;
        for _ in 0..10 {
            if !g.next_transaction()["img"].slice(199, 64).is_zero() {
                high_bits_seen = true;
            }
        }
        assert!(
            high_bits_seen,
            "upper chunks of a wide uniform field never toggled"
        );
    }

    #[test]
    fn corners_show_up() {
        let mut g = StimulusGen::new(3).field(
            "v",
            FieldSpec::Corners {
                width: 8,
                corner_percent: 100,
            },
        );
        let mut saw_max = false;
        let mut saw_zero = false;
        for _ in 0..100 {
            match g.next_transaction()["v"].to_u64() {
                0xFF => saw_max = true,
                0 => saw_zero = true,
                _ => {}
            }
        }
        assert!(saw_max && saw_zero);
    }
}
