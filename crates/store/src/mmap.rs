//! Minimal memmap-style shim: read-only file mappings without `libc`.
//!
//! The offline workspace has no crates.io access, so the usual `memmap2`
//! crate is unavailable. On Linux x86_64/aarch64 this module issues the raw
//! `mmap(2)`/`munmap(2)` syscalls directly (the only `unsafe` in the
//! crate, together with the `madvise(2)` behind [`Mmap::release`]); every
//! other target — and any mapping failure — falls back to
//! reading the file into a heap buffer behind the same API, so callers are
//! portable and infallible-by-construction once the file is readable.
//!
//! Mappings are private and read-only. Segment files are immutable once
//! written (the writer creates them under a temp name and renames), so the
//! usual mmap truncation hazard does not arise for files this crate owns.

use std::fs::File;
use std::io::Read;
use std::ops::Deref;

/// A read-only view of an entire file: a real memory mapping where
/// supported, a heap copy elsewhere.
#[derive(Debug)]
pub struct Mmap {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE over a file this crate
// treats as immutable; shared immutable byte access is sound.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
unsafe impl Send for Mmap {}
// SAFETY: as for Send above — the mapped bytes are read-only for the
// mapping's whole lifetime, so concurrent shared access cannot race.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only. Falls back to a heap copy if mapping is
    /// unsupported on this target or the syscall fails.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file's length cannot be
    /// read, or the fallback read fails.
    pub fn map(file: &File) -> std::io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| std::io::Error::other("file too large to map on this target"))?;
        if len == 0 {
            return Ok(Mmap {
                backing: Backing::Heap(Vec::new()),
            });
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Some(ptr) = sys::map_readonly(file, len) {
            return Ok(Mmap {
                backing: Backing::Mapped { ptr, len },
            });
        }
        let mut buf = Vec::with_capacity(len);
        let mut reader = file;
        reader.read_to_end(&mut buf)?;
        Ok(Mmap {
            backing: Backing::Heap(buf),
        })
    }

    /// Whether the bytes are served by a real memory mapping (as opposed to
    /// the heap-copy fallback).
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            matches!(self.backing, Backing::Mapped { .. })
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            false
        }
    }

    /// The mapped bytes.
    #[allow(unsafe_code)]
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Mapped { ptr, len } => {
                // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
                // bytes, unmapped only in Drop; u8 has no alignment or
                // validity requirements.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Heap(buf) => buf,
        }
    }

    /// Drops the pages lying wholly inside `[off, off + len)` from this
    /// process's resident set (`madvise(MADV_DONTNEED)`). The bytes are
    /// unchanged — the mapping is read-only over an immutable file, so
    /// the next read faults them back in from it — which makes this the
    /// call for a range whose contents were just copied elsewhere. Advice
    /// only: a no-op on the heap-copy fallback, for a range that covers
    /// no whole page, and if the syscall fails.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the mapping.
    #[allow(unsafe_code)]
    pub fn release(&self, off: usize, len: usize) {
        let end = off.checked_add(len);
        assert!(
            end.is_some_and(|end| end <= self.len()),
            "release range [{off}, {off}+{len}) exceeds the mapping"
        );
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Backing::Mapped { ptr, .. } = self.backing {
            // The mapping's base is page-aligned, so offsets align like
            // addresses do.
            let first = off.next_multiple_of(sys::PAGE);
            let last = (off + len) / sys::PAGE * sys::PAGE;
            if first < last {
                // SAFETY: `[first, last)` lies inside `[off, off + len)`,
                // asserted above to lie inside this live PROT_READ /
                // MAP_PRIVATE file mapping, and `ptr + first` is
                // page-aligned; MADV_DONTNEED on such a range only unmaps
                // clean file pages, which refault with the same contents.
                unsafe { sys::advise_dontneed(ptr.wrapping_add(first), last - first) };
            }
        }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: exactly the region returned by mmap, unmapped once.
            unsafe { sys::unmap(ptr, len) };
        }
    }
}

/// Raw Linux syscalls — the crate's entire unsafe surface.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    use std::fs::File;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_DONTNEED: usize = 4;

    /// Alignment `madvise` ranges are cut to: the page size on x86_64,
    /// the largest page size the kernel can be built with on aarch64 (a
    /// multiple of the smaller ones).
    #[cfg(target_arch = "x86_64")]
    pub const PAGE: usize = 4096;
    #[cfg(target_arch = "aarch64")]
    pub const PAGE: usize = 65536;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const SYS_MADVISE: usize = 28;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const SYS_MADVISE: usize = 233;

    /// Maps `len` bytes of `file` read-only/private. `None` on any syscall
    /// failure (caller falls back to a heap copy).
    pub fn map_readonly(file: &File, len: usize) -> Option<*const u8> {
        let fd = file.as_raw_fd();
        if fd < 0 {
            return None;
        }
        // SAFETY: arguments follow the mmap(2) ABI (NULL hint, read-only,
        // private, offset 0); the returned region is only ever read.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        let signed = ret as isize;
        // The kernel reports errors as -errno in [-4095, -1].
        if (-4095..0).contains(&signed) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmaps a region previously returned by [`map_readonly`].
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must be exactly one live mapping from [`map_readonly`],
    /// and no reference into it may outlive this call.
    pub unsafe fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: delegated to the caller's contract above.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }

    /// `madvise(ptr, len, MADV_DONTNEED)`; the result is ignored (advice).
    ///
    /// # Safety
    ///
    /// `[ptr, ptr + len)` must lie inside one live mapping from
    /// [`map_readonly`] and `ptr` must be page-aligned: on any other
    /// memory MADV_DONTNEED discards data.
    pub unsafe fn advise_dontneed(ptr: *const u8, len: usize) {
        // SAFETY: delegated to the caller's contract above.
        let _ = unsafe { syscall6(SYS_MADVISE, ptr as usize, len, MADV_DONTNEED, 0, 0, 0) };
    }

    /// One six-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass a valid syscall number and arguments satisfying
    /// that syscall's contract.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> usize {
        let ret;
        // SAFETY: the x86_64 Linux syscall ABI — number in rax, args in
        // rdi/rsi/rdx/r10/r8/r9, rcx/r11 clobbered, result in rax.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// One six-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass a valid syscall number and arguments satisfying
    /// that syscall's contract.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> usize {
        let ret;
        // SAFETY: the aarch64 Linux syscall ABI — number in x8, args in
        // x0..x5, result in x0.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(contents: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "vlite-mmap-test-{}-{contents:p}.bin",
            std::process::id()
        ));
        let mut f = File::create(&path).expect("create temp file");
        f.write_all(contents).expect("write");
        f.sync_all().expect("sync");
        drop(f);
        let f = File::open(&path).expect("reopen");
        (path, f)
    }

    #[test]
    fn maps_whole_file_contents() {
        let payload: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let (path, file) = temp_file(&payload);
        let map = Mmap::map(&file).expect("maps");
        assert_eq!(&map[..], &payload[..]);
        assert_eq!(map.len(), payload.len());
        drop(map);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_file_maps_empty() {
        let (path, file) = temp_file(&[]);
        let map = Mmap::map(&file).expect("maps");
        assert!(map.is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn released_pages_read_back_unchanged() {
        let payload: Vec<u8> = (0..=255).cycle().take(5 * 4096 + 123).collect();
        let (path, file) = temp_file(&payload);
        let map = Mmap::map(&file).expect("maps");
        assert_eq!(&map[..], &payload[..]);
        map.release(100, 4 * 4096); // whole pages 1..=3, ragged edges kept
        map.release(0, payload.len());
        map.release(7, 0);
        assert_eq!(&map[..], &payload[..], "released pages refault intact");
        drop(map);
        let _ = std::fs::remove_file(path);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn linux_uses_a_real_mapping() {
        let (path, file) = temp_file(&[7u8; 4096]);
        let map = Mmap::map(&file).expect("maps");
        assert!(map.is_mapped(), "expected a real mmap on linux");
        assert!(map.iter().all(|&b| b == 7));
        let _ = std::fs::remove_file(path);
    }
}
