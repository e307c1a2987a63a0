//! Bounded little-endian reads from a byte slice — the one reader behind
//! every model format (`LMKGNN1`, `LMKGQT1`, `LMKGQM1` here, `LMKGSET1` in
//! `lmkg::snapshot`).
//!
//! The slice is the reader: each function consumes from the front of
//! `*r`, and `r.len()` is what is left. A read past the end is
//! `UnexpectedEof`. A count taken from the input passes through [`len`]
//! before anything is allocated for it, so an allocation sized by such a
//! count is bounded by the input's own length.

use std::io;

// Two u32 sizes read from a file multiply without overflow.
const _: () = assert!(usize::BITS >= 64, "the formats assume a 64-bit usize");

/// The next `n` bytes.
pub fn take<'a>(r: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if n > r.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("{n} bytes wanted, {} left", r.len()),
        ));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

macro_rules! scalars {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        pub fn $t(r: &mut &[u8]) -> io::Result<$t> {
            let bytes = take(r, std::mem::size_of::<$t>())?;
            Ok($t::from_le_bytes(bytes.try_into().expect("take returns the size asked for")))
        }
    )*};
}

scalars!(u8, u32, u64, f32, f64);

/// `n`, if `n` elements of at least `elem_bytes` bytes each fit in what is
/// left of `r`; `InvalidData` otherwise. Call it on every count read from
/// the input before allocating for that count.
pub fn len(r: &[u8], n: usize, elem_bytes: usize) -> io::Result<usize> {
    match n.checked_mul(elem_bytes) {
        Some(total) if total <= r.len() => Ok(n),
        _ => Err(invalid(format!(
            "{n} elements of {elem_bytes} bytes, {} bytes left",
            r.len()
        ))),
    }
}

/// The `InvalidData` error of a value the input may not hold.
pub(crate) fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// `n` little-endian `f32`s.
pub(crate) fn f32s(r: &mut &[u8], n: usize) -> io::Result<Vec<f32>> {
    let n = len(r, n, 4)?;
    Ok(take(r, n * 4)?
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_consume_the_slice_and_stop_at_its_end() {
        let bytes = [7u8, 1, 0, 0, 0, 0, 0, 128, 63];
        let mut r = bytes.as_slice();
        assert_eq!(u8(&mut r).unwrap(), 7);
        assert_eq!(u32(&mut r).unwrap(), 1);
        assert_eq!(f32(&mut r).unwrap(), 1.0);
        assert!(r.is_empty());
        let err = u64(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn len_refuses_what_does_not_fit_or_overflows() {
        let left = [0u8; 12];
        assert_eq!(len(&left, 3, 4).unwrap(), 3);
        assert_eq!(len(&left, 4, 3).unwrap(), 4);
        for (n, elem) in [(4, 4), (13, 1), (usize::MAX, 2), (2, usize::MAX)] {
            let err = len(&left, n, elem).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{n} × {elem}");
        }
        let mut r = left.as_slice();
        assert!(f32s(&mut r, usize::MAX / 2).is_err());
        assert_eq!(r.len(), 12, "a refused read consumes nothing");
    }
}
