//! Page sizes.

use std::fmt;

/// Translation granule. The paper's baseline is 4 KiB; §VII-H4 evaluates
/// 64 KiB and 2 MiB, and §VII-H5 compares against a 2 MiB super page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PageSize {
    /// 4 KiB base pages.
    #[default]
    Size4K,
    /// 64 KiB large pages.
    Size64K,
    /// 2 MiB super pages.
    Size2M,
}

impl PageSize {
    /// log2 of the page size in bytes.
    pub fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size64K => 16,
            PageSize::Size2M => 21,
        }
    }

    /// Page size in bytes.
    pub fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// All supported sizes, smallest first.
    pub fn all() -> [PageSize; 3] {
        [PageSize::Size4K, PageSize::Size64K, PageSize::Size2M]
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size64K => write!(f, "64KB"),
            PageSize::Size2M => write!(f, "2MB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_correct() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size64K.bytes(), 65536);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn display() {
        assert_eq!(PageSize::Size2M.to_string(), "2MB");
    }

    #[test]
    fn default_is_4k() {
        assert_eq!(PageSize::default(), PageSize::Size4K);
    }
}
