//! Address arithmetic.
//!
//! Byte addresses are `u64`. A [`Line`] is a line *number* (the byte
//! address shifted right by [`LINE_SHIFT`]), and a [`Page`] is a page
//! number (shifted by [`PAGE_SHIFT`]). Keeping these as plain integers
//! keeps hot simulator paths allocation- and conversion-free; the distinct
//! aliases document intent at API boundaries.
//!
//! The simulated machine has one line size and one page size, so both are
//! constants here rather than configuration: every cache, directory, page
//! table and message size derives from them.

/// A cache/memory line number (byte address >> [`LINE_SHIFT`]).
pub type Line = u64;

/// A page number (byte address >> [`PAGE_SHIFT`]).
pub type Page = u64;

/// Line size shift: the coherence unit is a 64-byte line at every level.
pub const LINE_SHIFT: u32 = 6;

/// Line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// Page size shift: 4 KiB pages, the unit of homing and paging.
pub const PAGE_SHIFT: u32 = 12;

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Lines per page. A page smaller than a line fails to compile here.
pub const LINES_PER_PAGE: u64 = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// A line number stored in four bytes, for the per-line tag entries and
/// line-keyed queues.
///
/// Tag entries and queue slots exist once per line of simulated memory,
/// so their key width sets the per-line host cost. Every simulated line
/// is far below 2^32 (the largest lab footprint, 441 MB at full scale,
/// ends below line 2^23), so four bytes hold it. [`CompactLine::new`] is
/// the only way to make one and [`CompactLine::get`] the only way back to
/// a [`Line`], so a line is never silently truncated.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::CompactLine;
///
/// let l = CompactLine::new(0x4_0000);
/// assert_eq!(l.get(), 0x4_0000);
/// assert_eq!(std::mem::size_of::<CompactLine>(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CompactLine(u32);

impl CompactLine {
    /// Narrows `line` to four bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 2^32`, in release builds too: a truncated key
    /// would match a different resident line with the same low 32 bits.
    #[inline]
    pub fn new(line: Line) -> Self {
        assert!(
            line <= Line::from(u32::MAX),
            "line {line:#x} does not fit in a 32-bit line key"
        );
        CompactLine(line as u32)
    }

    /// The line number.
    #[inline]
    pub fn get(self) -> Line {
        Line::from(self.0)
    }
}

/// Line number of a byte address.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::line_of;
/// assert_eq!(line_of(0x1000), 0x40); // 64-byte lines
/// assert_eq!(line_of(0x103F), 0x40);
/// assert_eq!(line_of(0x1040), 0x41);
/// ```
#[inline]
pub const fn line_of(addr: u64) -> Line {
    addr >> LINE_SHIFT
}

/// Page number of a byte address.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::page_of;
/// assert_eq!(page_of(0x2FFF), 2); // 4 KiB pages
/// assert_eq!(page_of(0x3000), 3);
/// ```
#[inline]
pub const fn page_of(addr: u64) -> Page {
    addr >> PAGE_SHIFT
}

/// Page number of a line.
#[inline]
pub const fn page_of_line(line: Line) -> Page {
    line >> (PAGE_SHIFT - LINE_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_consistency() {
        let addr = 0xDEAD_BEEF_u64;
        let line = line_of(addr);
        let page = page_of(addr);
        assert_eq!(page_of_line(line), page);
        assert_eq!(LINES_PER_PAGE * LINE_BYTES, PAGE_BYTES);
    }

    #[test]
    fn compact_line_round_trips_its_range_ends() {
        for line in [0, Line::from(u32::MAX)] {
            assert_eq!(CompactLine::new(line).get(), line);
        }
    }

    #[test]
    #[should_panic(expected = "32-bit line key")]
    fn compact_line_rejects_lines_past_32_bits() {
        CompactLine::new(1 << 32);
    }

    #[test]
    fn adjacent_bytes_same_line() {
        assert_eq!(line_of(64), line_of(127));
        assert_ne!(line_of(64), line_of(128));
    }
}
