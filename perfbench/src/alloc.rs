//! A heap counter around the system allocator, switched on only while
//! a traced run measures bytes per explored state. It counts the
//! calling thread's allocations alone, in thread-local cells; when off,
//! each call costs one thread-local read on top of the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

#[derive(Clone, Copy)]
struct Count {
    on: bool,
    /// Bytes allocated minus bytes freed since [`measure`] started;
    /// blocks allocated earlier and freed meanwhile drive it below
    /// zero.
    live: isize,
    peak: isize,
}

thread_local! {
    // Const-initialised and free of destructors, so reading it from the
    // allocator never allocates and never fails.
    static COUNT: Cell<Count> = const {
        Cell::new(Count { on: false, live: 0, peak: 0 })
    };
}

fn count(delta: isize) {
    let _ = COUNT.try_with(|c| {
        let mut n = c.get();
        if n.on {
            n.live += delta;
            n.peak = n.peak.max(n.live);
            c.set(n);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter is a
// thread-local cell and never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the peak growth of the live
/// heap bytes the calling thread allocated while it ran.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| {
        c.set(Count {
            on: true,
            live: 0,
            peak: 0,
        })
    });
    let out = f();
    let peak = COUNT.with(|c| {
        let n = c.get();
        c.set(Count { on: false, ..n });
        n.peak
    });
    (out, peak.max(0) as u64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_counts_a_live_vector() {
        let (len, peak) = super::measure(|| {
            let v = std::hint::black_box(vec![0u8; 1 << 20]);
            v.len()
        });
        assert_eq!(len, 1 << 20);
        assert!(peak >= 1 << 20, "{peak}");
    }

    #[test]
    fn freed_memory_does_not_count() {
        let (_, peak) = super::measure(|| {
            for _ in 0..4 {
                drop(std::hint::black_box(vec![0u8; 1 << 20]));
            }
        });
        assert!((1 << 20..2 << 20).contains(&peak), "{peak}");
    }
}
