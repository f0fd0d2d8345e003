//! Read-only memory mapping of snapshot files, kept behind a tiny audited
//! surface. This module holds most of the crate's `unsafe` code; the
//! crate root lists every audited site.
//!
//! The zero-copy restore path ([`crate::snapshot::map_snapshot`]) serves
//! arena slices straight out of the page cache instead of bulk-copying a
//! multi-gigabyte pool into fresh heap. That requires two operations the
//! safe subset of `std` does not offer:
//!
//! 1. mapping a file (`mmap(2)` with `PROT_READ | MAP_PRIVATE`), and
//! 2. reinterpreting an aligned little-endian byte range of the mapping as
//!    `&[u32]`.
//!
//! Both live here. The invariants that make them sound:
//!
//! * The mapping is **private and read-only**; the kernel delivers `SIGBUS`
//!   only if the file shrinks underneath us — callers keep snapshot files
//!   immutable while mapped. The engine's own saves write a new file and
//!   rename it over the old path, so the mapped inode is never truncated.
//! * [`Mmap`] owns the region for its whole lifetime and unmaps on drop;
//!   every borrowed slice is tied to that lifetime, so no view can outlive
//!   the mapping.
//! * [`u32_slice`] refuses misaligned or out-of-range requests, and the
//!   zero-copy cast is compiled only on little-endian targets (snapshot
//!   integers are little-endian on disk); big-endian hosts take the bulk
//!   restore path instead.

// The crate-level lint is `deny`, not `forbid`, so this module can lift it
// for the mapping, its two slice views, the unmap and the `Send + Sync`
// impls; the crate root lists these with the crate's other audited sites.
#![allow(unsafe_code)]

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // Raw libc bindings: std already links libc on every unix target, so
    // declaring the two symbols we need avoids a vendored crate.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only, private memory mapping of an entire file.
#[derive(Debug)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// The mapping is immutable shared memory: concurrent reads from any thread
// are sound, and unmapping is gated by the single owner's drop.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps the whole of `file` read-only.
    ///
    /// # Errors
    /// Propagates a `metadata` failure and the `mmap(2)` errno; an empty
    /// file is rejected (`mmap` of length 0 is unspecified, and no valid
    /// snapshot is empty). On non-unix targets this always fails with
    /// [`io::ErrorKind::Unsupported`].
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot map an empty file",
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "file exceeds the addressable size",
            )
        })?;
        Self::map_fd(file, len)
    }

    #[cfg(unix)]
    fn map_fd(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open file descriptor for the duration of
        // the call; len is nonzero; a NULL addr lets the kernel pick the
        // placement. The resulting region is only ever read through `&self`
        // and unmapped exactly once in drop.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn map_fd(_file: &File, _len: usize) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory-mapped snapshots require a unix target",
        ))
    }

    /// Total mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file as a byte slice.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self;
        // the borrow ties the slice to the mapping's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once; failure is unrecoverable in drop and ignored.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

/// Reinterprets `map.bytes()[start..start + 4 * len]` as `&[u32]`.
///
/// Returns `None` when the range is out of bounds, when `start` is not
/// 4-byte aligned relative to the mapping base (page-aligned, so absolute
/// alignment follows), or on big-endian hosts where the on-disk
/// little-endian words cannot be viewed in place.
pub fn u32_slice(map: &Mmap, start: usize, len: usize) -> Option<&[u32]> {
    let bytes = len.checked_mul(4)?;
    let end = start.checked_add(bytes)?;
    if end > map.len() || !start.is_multiple_of(4) {
        return None;
    }
    if cfg!(target_endian = "big") {
        return None;
    }
    let base = map.bytes()[start..end].as_ptr();
    // mmap returns page-aligned memory and start is a multiple of 4, so the
    // pointer satisfies u32 alignment; still assert in debug builds.
    debug_assert_eq!(base as usize % std::mem::align_of::<u32>(), 0);
    // SAFETY: the range is in bounds of a live read-only mapping, the
    // pointer is 4-aligned (checked above), u32 has no invalid bit
    // patterns, and the target is little-endian so the in-memory and
    // on-disk representations coincide.
    Some(unsafe { std::slice::from_raw_parts(base as *const u32, len) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("imin-mmap-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn maps_a_file_and_reads_it_back() {
        let path = temp_path("roundtrip");
        let words: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.len(), bytes.len());
        assert_eq!(map.bytes(), &bytes[..]);
        if cfg!(target_endian = "little") {
            assert_eq!(u32_slice(&map, 0, words.len()).unwrap(), &words[..]);
            assert_eq!(u32_slice(&map, 8, 2).unwrap(), &words[2..4]);
        }
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_misaligned_and_out_of_range_views() {
        let path = temp_path("bounds");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&[0u8; 64])
            .unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(u32_slice(&map, 1, 1).is_none(), "misaligned start");
        assert!(u32_slice(&map, 0, 17).is_none(), "past the end");
        assert!(u32_slice(&map, 64, 1).is_none(), "starts at the end");
        assert!(u32_slice(&map, usize::MAX - 2, 1).is_none(), "overflow");
        assert!(u32_slice(&map, 0, usize::MAX / 2).is_none(), "len overflow");
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_empty_files() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        assert!(Mmap::map(&File::open(&path).unwrap()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
