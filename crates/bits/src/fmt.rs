//! Formatting and parsing for [`Bv`]: Verilog-style sized literals.

use std::fmt;
use std::str::FromStr;

use crate::{Bv, ParseBvError};

impl Bv {
    /// Parses a `width`-bit value from digits in the given radix (2, 8, 10,
    /// or 16). Underscores are permitted as digit separators.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBvError`] if the string contains an invalid digit, is
    /// empty, the radix is unsupported, or the value does not fit in
    /// `width` bits.
    ///
    /// # Example
    ///
    /// ```
    /// # use dfv_bits::Bv;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let v = Bv::from_str_radix(12, "ABC", 16)?;
    /// assert_eq!(v.to_u64(), 0xABC);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_str_radix(width: u32, digits: &str, radix: u32) -> Result<Bv, ParseBvError> {
        if width == 0 {
            return Err(ParseBvError::new("width must be at least 1"));
        }
        if !matches!(radix, 2 | 8 | 10 | 16) {
            return Err(ParseBvError::new(format!("unsupported radix {radix}")));
        }
        let mut value = Bv::zero(width.max(64));
        let top_bits = value.width() % 64;
        let mut any = false;
        for ch in digits.chars() {
            if ch == '_' {
                continue;
            }
            let d = ch.to_digit(radix).ok_or_else(|| {
                ParseBvError::new(format!("invalid digit {ch:?} for radix {radix}"))
            })?;
            // value = value * radix + d, one limb at a time; whatever
            // spills past the working width is an overflow.
            let mut carry = u64::from(d);
            for limb in value.limbs.iter_mut() {
                let p = u128::from(*limb) * u128::from(radix) + u128::from(carry);
                *limb = p as u64;
                carry = (p >> 64) as u64;
            }
            let spilled = top_bits != 0 && value.limbs[value.limbs.len() - 1] >> top_bits != 0;
            if carry != 0 || spilled {
                return Err(ParseBvError::new("value does not fit working width"));
            }
            any = true;
        }
        if !any {
            return Err(ParseBvError::new("empty digit string"));
        }
        if value.width() > width {
            if !value.slice(value.width() - 1, width).is_zero() {
                return Err(ParseBvError::new(format!(
                    "value does not fit in {width} bits"
                )));
            }
            value = value.trunc(width);
        }
        Ok(value)
    }
}

/// Parses Verilog-style sized literals: `8'hFF`, `4'b1010`, `16'd1234`,
/// `9'o777`. The width prefix is mandatory.
impl FromStr for Bv {
    type Err = ParseBvError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (width_str, rest) = s
            .split_once('\'')
            .ok_or_else(|| ParseBvError::new("expected sized literal like 8'hFF"))?;
        let width: u32 = width_str
            .trim()
            .parse()
            .map_err(|_| ParseBvError::new(format!("invalid width {width_str:?}")))?;
        let mut chars = rest.chars();
        let radix = match chars.next() {
            Some('b' | 'B') => 2,
            Some('o' | 'O') => 8,
            Some('d' | 'D') => 10,
            Some('h' | 'H') => 16,
            other => {
                return Err(ParseBvError::new(format!(
                    "expected base character b/o/d/h, found {other:?}"
                )))
            }
        };
        Bv::from_str_radix(width, chars.as_str(), radix)
    }
}

impl fmt::Display for Bv {
    /// Displays as a sized hexadecimal literal, e.g. `8'hff`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::Debug for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bv({self})")
    }
}

impl fmt::LowerHex for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = (self.width as usize).div_ceil(4);
        let mut s = String::with_capacity(digits);
        for i in (0..digits).rev() {
            // Nibbles never straddle limbs, and bits above the width are 0.
            let nib = (self.limbs[i / 16] >> ((i % 16) * 4)) & 0xF;
            s.push(char::from_digit(nib as u32, 16).expect("nibble in range"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::UpperHex for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{self:x}").to_uppercase();
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Binary for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(self.width as usize);
        for i in (0..self.width).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        f.pad_integral(true, "0b", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let v = Bv::from_u64(12, 0xABC);
        assert_eq!(v.to_string(), "12'habc");
        assert_eq!(v.to_string().parse::<Bv>().unwrap(), v);
    }

    #[test]
    fn parse_bases() {
        assert_eq!("8'hFF".parse::<Bv>().unwrap(), Bv::from_u64(8, 0xFF));
        assert_eq!("4'b1010".parse::<Bv>().unwrap(), Bv::from_u64(4, 0b1010));
        assert_eq!("16'd1234".parse::<Bv>().unwrap(), Bv::from_u64(16, 1234));
        assert_eq!("9'o777".parse::<Bv>().unwrap(), Bv::from_u64(9, 0o777));
        assert_eq!(
            "32'hdead_beef".parse::<Bv>().unwrap(),
            Bv::from_u64(32, 0xDEAD_BEEF)
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("8'hGG".parse::<Bv>().is_err());
        assert!("8FF".parse::<Bv>().is_err());
        assert!("8'h".parse::<Bv>().is_err());
        assert!("0'h1".parse::<Bv>().is_err());
        assert!("x'h1".parse::<Bv>().is_err());
        assert!("4'd100".parse::<Bv>().is_err()); // 100 does not fit in 4 bits
    }

    #[test]
    fn parse_wide_values() {
        let v: Bv = "128'hffffffffffffffffffffffffffffffff".parse().unwrap();
        assert!(v.is_ones());
        // 2^80 does not fit in 80 bits and must be rejected, not wrapped.
        assert!("80'd1208925819614629174706176".parse::<Bv>().is_err());
        let near: Bv = "80'd1208925819614629174706175".parse().unwrap(); // 2^80 - 1
        assert!(near.is_ones());
    }

    #[test]
    fn wide_literals_round_trip_in_every_radix() {
        // Digits are folded in limb by limb, so a 4096-bit literal costs
        // a few thousand limb products, not a bignum division per digit.
        let limbs: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let v = Bv::from_limbs(4096, &limbs);
        assert_eq!(v.to_string().parse::<Bv>().unwrap(), v);
        let bin = format!("4096'b{v:b}");
        assert_eq!(bin.parse::<Bv>().unwrap(), v);
        assert!(format!("4095'h{v:x}").parse::<Bv>().is_err());
    }

    #[test]
    fn hex_binary_formatting() {
        let v = Bv::from_u64(10, 0x2A5);
        assert_eq!(format!("{v:x}"), "2a5");
        assert_eq!(format!("{v:X}"), "2A5");
        assert_eq!(format!("{v:b}"), "1010100101");
        assert_eq!(format!("{v:#x}"), "0x2a5");
        assert_eq!(format!("{:x}", Bv::zero(9)), "000");
    }
}
